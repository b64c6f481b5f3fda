"""sha256 pins of the mesh and layout arrays.

Every array a mesh or an electrode layout holds is pinned as the sha256 of
its shape and its little-endian bytes (integers as int64, booleans as 0/1),
so that a rewrite of the geometry kernels cannot move a single bit. The one
freedom left is the order of an electrode's rim rows in ``contact_geometry``:
the admissibility check only ORs over them, so each electrode's rows are
pinned as a set.
"""

import hashlib

import numpy as np
import pytest

from eitrev.mesh import define_electrodes, disk_electrode_midpoints, generate_disk_mesh
from conftest import kuhn_cube

CUBE_MIDPOINTS = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype("<i8" if a.dtype.kind in "biu" else "<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _mesh(name):
    if name.startswith("cube"):
        return kuhn_cube(int(name[4:]))
    return generate_disk_mesh(int(name[1:]))


def _layout(name):
    if name == "cube":
        return define_electrodes(kuhn_cube(2), CUBE_MIDPOINTS, 0.5, 0.4)
    level, M, radii = {
        "layout8": (2, 8, (0.3, 0.2)),
        "layout16": (3, 16, (0.15, 0.10)),
        "L4/16": (4, 16, (0.15, 0.10)),
        "L5/16": (5, 16, (0.15, 0.10)),
    }[name]
    return define_electrodes(generate_disk_mesh(level), disk_electrode_midpoints(M), *radii)


def _rim_rows(geometry):
    """Each electrode's rim rows (a, ab, ab2) as a set: sorted by their bytes."""
    rows = np.column_stack([geometry.a, geometry.ab, geometry.ab2]).astype("<f8")
    h = hashlib.sha256()
    for start, n in zip(geometry.seg_start, geometry.n_seg):
        h.update(repr(int(n)).encode())
        for row in sorted(r.tobytes() for r in rows[start : start + n]):
            h.update(row)
    return h.hexdigest()


MESH_FIELDS = {
    "vertices": lambda mesh: _sha(mesh.vertices),
    "cells": lambda mesh: _sha(mesh.cells),
    "boundary_facets": lambda mesh: _sha(mesh.boundary_facets),
    "cell_volumes": lambda mesh: _sha(mesh.cell_volumes),
    "gradient_axes": lambda mesh: _sha(mesh.gradient_axes),
    "cell_adjacency": lambda mesh: _sha(*mesh.cell_adjacency),
}

LAYOUT_FIELDS = {
    "electrodes": lambda lay: _sha(*lay.electrodes),
    "local_maps": lambda lay: _sha(
        *[np.append(np.ravel([c.origin, *c.axes]), c.scale) for c in lay.local_maps]
    ),
    "efacet_electrode": lambda lay: _sha(lay.efacet_electrode),
    "efacet_slices": lambda lay: _sha([(sl.start, sl.stop) for sl in lay.efacet_slices]),
    "efacet_vertices": lambda lay: _sha(lay.efacet_vertices),
    "equad_local": lambda lay: _sha(lay.equad_local),
    "equad_weights": lambda lay: _sha(lay.equad_weights),
    "efacet_measures": lambda lay: _sha(lay.efacet_measures),
    "contact_mask": lambda lay: _sha(lay.contact_mask),
    "facet_groups": lambda lay: _sha(*[a for group in lay.facet_groups for a in group]),
    "contact_measures": lambda lay: _sha(lay.contact_measures),
    "anchors": lambda lay: _sha(lay.contact_geometry.anchors),
    "rim_counts": lambda lay: _sha(lay.contact_geometry.seg_start, lay.contact_geometry.n_seg),
    "rim_rows": lambda lay: _rim_rows(lay.contact_geometry),
}

MESH_PINS = {
    "L0": {
        "vertices": "438aee5487562aabca234c37b824fe3b1831078f6dd3fb223c1de17896aa8509",
        "cells": "64a70ce9d5cd9a5ea65adfc22d620276d4436f12411608aa876df3ed77b7aeb7",
        "boundary_facets": "b5bd6401a2e09655ba9e33d051c621c9246a00675e720989a8ea1068ebf54341",
        "cell_volumes": "2d99206ffd1423501cca52e9bf5b52d18940903ce4279c63ad785e7cf324df34",
        "gradient_axes": "ed3b912ec5732181c007721729ca06da1aaf94ca58b527b8f16b38629fe4a574",
        "cell_adjacency": "dd38cac5b4a827fca4fb112867fcdf32e62a78ddf4ccbdcdf66cf5131b0ed58c",
    },
    "L1": {
        "vertices": "000b118f14d0a7b1071c76f5226492a75e3dc3891794383eb82e481c4ea0ef8b",
        "cells": "1ec2bfd937cc24ed917f2c1f9188546ef294208fbd24feb3d1503e402ceb3c70",
        "boundary_facets": "67fcb6de5cf061766714a50f8c59b013226eb448ae02fb322009f96afab6ec21",
        "cell_volumes": "f30e7181e805fc4d3efe33e8b936d6cb02eb325b0a5e7555185a9e831ce4400d",
        "gradient_axes": "1568d961105b1c436f787c273486df46d14baa606c5a626a75b7063b30c593ea",
        "cell_adjacency": "594d97291efaa3542c6e006c6393c7bf5bd42b7a312316a7ac709bdf0d9a0d05",
    },
    "L2": {
        "vertices": "eb7042c2146a14981a2b80ac8a12dd6d57fb0fa7f104c35c3807e35b8ee1309c",
        "cells": "babd146fb3aa2b39c1e213e8fcaba31ef64c7ea265bd49a4dc5be753b6eb76df",
        "boundary_facets": "a7ae7f9362d6e6c108801e3e1ae2ca16b998bffc2b7fbfadefe42e30fd473999",
        "cell_volumes": "8aa6a3b4aa1e72a8dfae73469ad302f922ea8447a3775c7377cdb3b2cc12e0ff",
        "gradient_axes": "cb75b832fe6b415ad023fa67a4a43a7209731c2e0743bc6aaefebdc43222a871",
        "cell_adjacency": "774ba6dd3d470da3572228706f10a2a8f1d20d6b5e5e621b2c76f22fce5cc130",
    },
    "L3": {
        "vertices": "599fd406662bf70ecae4c96c0b061074e3f89a4f0830bcdfd47eea1c68dbe61f",
        "cells": "ca513818ad7b343b12c07bef24786d48af073a5b5992050ae0480e201150034e",
        "boundary_facets": "b0cd9ef4e467021089a0f7d2f6c190c628fd79b9c3f7f9e08ea199e2af0e63d1",
        "cell_volumes": "3183db0f8842fb8df1fed05179660e88dcc4319e544e1c97263c8388ee726eb6",
        "gradient_axes": "4019d33260f39df2527c4564279fd40a0290cfaa8125222714d1148720bd88dc",
        "cell_adjacency": "3e388d1d64af45f1cac7f52d1fa37f58bc630042155def5a3c489eb55c06cc29",
    },
    "L4": {
        "vertices": "b6862d3a7c4a7e2c194699e5eca1ad4fcca57f4646b46f37fe20a9c73957a4b3",
        "cells": "35cf6930c93decafd3aa26b2c616e7fb040cf5a66cbf47d2c5c51fe5eb8faa21",
        "boundary_facets": "945cfa1df9d0c2fa825e80986c1b40dd0f01c1323df211b1eed063710e27d241",
        "cell_volumes": "b9605e9176941c7b46e138284367d728156f9f914197d010e78171ce6efecbaa",
        "gradient_axes": "ffece75aa5ff598b7502271e43a51ad4c124b507cb287b65f11ea84119cb6a7b",
        "cell_adjacency": "cc117ed49bd85af21c47dac0fd4fdcf289bca70be400296a8951983fd75d9e0b",
    },
    "L5": {
        "vertices": "223a9214bc2ba4ea57f3131c34e4cddcb00ecea88ffb8787dbf09c7e76798575",
        "cells": "5b731fe273c0f77c1994beb02806d6895f1dda85951fbe02852d590fa3aba369",
        "boundary_facets": "2ab77181e2d5471c94e68b41c16952cbd8195dd1fcb875dea6b502c420264366",
        "cell_volumes": "5d294899ce3eeb73c80d760e76b202690e6ba2040e7852aa2cd9f1d803ad1933",
        "gradient_axes": "ed9f249362eea54fdd76bf2d8909e06db889e244b0a900cf36ee1361892e9224",
        "cell_adjacency": "c429656b3a52674cb1578875a0778d1a410654ccec46e56e731ae1f06638469b",
    },
    "L6": {
        "vertices": "e3c622892de1d2dafa072919303b2ac4d9b7ac153096b5c882c81713add6fdef",
        "cells": "21f829c7975dff89acc13044d130e09223e55d9ee8ea0296375e0c9f9d1f09c9",
        "boundary_facets": "b468f026d7b0469a69e35b2e7141b1d337669c2a18fccf9815440ef99baf4eae",
        "cell_volumes": "679ff22437597d8702d890556f1d4e2866870235e930ababf64c7d2436c77292",
        "gradient_axes": "88f1e9d6bba5092eee0625591f8618c25bcfa7c3fe839040047e9bd556dd7719",
        "cell_adjacency": "ae4291320857a923dfc45669a7a4dcc828aac5e3247ad38b678673ac12d45da7",
    },
    "cube1": {
        "vertices": "e72d6ad091672c921aa9e7a0d74b5f4e9866c8017e31c210ff81b3d95f76cec5",
        "cells": "3cc16e60076c6ecebb0cf3a96d5791125a8f4f152597d4645e64de5f4a742df1",
        "boundary_facets": "7653ac985747be5c3b4944f71082f8814faf01e4bc314daa12d1685d1a82d4e3",
        "cell_volumes": "9d90d1b2e3d6a32b57a2c4098824cc573f2a2a5e5add75b679ec631cc616938c",
        "gradient_axes": "3189e63d51f222d8f068b6c33a39318182709d668f94032e359d2082425b561c",
        "cell_adjacency": "707726a563779344dda7e622197700277ca38cc92e1c38e741e97520fee09d7b",
    },
    "cube2": {
        "vertices": "88a756efac397131006dd41e0237723071120d88fd741496cc71936760bd3d8d",
        "cells": "0a7ae1ba6b2854b7cfbd3fded96738f221c77ab5d7731c482ee7c3f5b9bee049",
        "boundary_facets": "6bc14cbcbdbe5442d58c862a135696031713ed3d6de53b67a65a9bfb3717a328",
        "cell_volumes": "6f0679e76be945b021d3673d376ad0c2810354dd44c39d58eda64325967edc61",
        "gradient_axes": "cbe2ecd8b35d696a4cb46ae7f9e7c540687b82f0326f53828aca548df4ec6dc3",
        "cell_adjacency": "56aa175cc2f0da8f7a6a6dd9d75e4df69545870dcee601f1efe8be7fd47594dd",
    },
    "cube3": {
        "vertices": "2c3d9c551af7044ede40b50dd537c8fb8c3a1ae6b72611540032b9251b13f5d0",
        "cells": "ea997b5027b3df9a14e187e20c6db4cf7a88f0adfa6941a8a0456f331fb683b7",
        "boundary_facets": "5b87a997e8f92cbc9408c262a9a2bf362ef85172925b4f43e74751ac87495a18",
        "cell_volumes": "6142290ef5644b2c4a1b9af0d396dde13ea216062ef2ba18fb1fe8fc7b4632ee",
        "gradient_axes": "2a41e8ae4a7f1e6d6500db0557533a4dd7dbca7352c026c3bc67d57ded678db0",
        "cell_adjacency": "dd5a808af71322677373e84536df6edb4f5f0f7ebdbd94118a2fd45df4c9d9e7",
    },
}

LAYOUT_PINS = {
    "layout8": {
        "electrodes": "13bf1756816794b76321d57cc1c88045ad8c6a4d8175c02e893556b416b9e903",
        "local_maps": "3475dc5372a53bbd1d54471553c112d9f0f6594c186f0f1ae9b5b11602fce99e",
        "efacet_electrode": "26a8654b1dccb6dca4fbf20c7a8aa77e020fa2972e9bb47747293caa660c4284",
        "efacet_slices": "9f89ae70ecc5ef38bd939658f9e6fbce3a0391bdf9c201e2ed92165922ae72a7",
        "efacet_vertices": "baffc2f9d6e49b365104974cd4144ea29b4903a6985204ad897b30eb24c3c004",
        "equad_local": "53a4a2e0f1c39c25ec47a4a00fdbdbe03272c88602254ec5087c1988089deef5",
        "equad_weights": "cb4a1bc7d25cd5e171b164a91c56cbd5d8abff18d0754d9f366d713727904474",
        "efacet_measures": "968d1bc97d22886ef316ae219c648b298c0d5d3030c599384bc93d9cb9626ec3",
        "contact_mask": "e15fcca8dbdc7cea53a7f7abacb9b6719f66d2c1212c7a471dd1c1e12e7f8e35",
        "facet_groups": "4fa25e927bdf9ab5849c882372391cff20cddcdca62a912d15cf5cd2b1400e7a",
        "contact_measures": "3f28f819607fa6589c478286610e248cbb3a6ed5eb481fd516cc95fc774fab27",
        "anchors": "03a4d9413ba8d0acbcd1176e66738eec32ec6a1d6b937c03775c3ece815160be",
        "rim_counts": "074c1d91fd390e2928f95a98a18ae5a766b45a7fc5061a36ee23d034cb11cd06",
        "rim_rows": "821a38b4c25b0ab36567fccf77a7cd491ef56f8fb0a62c2306376af936b7d088",
    },
    "layout16": {
        "electrodes": "df631b8bb40ab79400e48ca837df050808c7c6b9c98abf13e99092d61d28ac7b",
        "local_maps": "6edb5216002c5739e4ce8fb2e928b7e3e29f500007f0893966104538a7e38a80",
        "efacet_electrode": "a9a0fee10e71e210de288f129e8720fcc0fc38272de8ee58848c226f74b1f2b4",
        "efacet_slices": "8e22864c00ef11ad2146b35946b037d4b00f878047f2c5c93e64ee1d520a78c7",
        "efacet_vertices": "89c2867453d24cd54aed71e4edc94f6a83391eab3b103abebbce9fb3fe2ef5d8",
        "equad_local": "116a94718fcbaaa257a4fb81bb0b9c36ab98038f2d55edc2bdf69c7f8d0004ad",
        "equad_weights": "71fe73289d9c6174f7aeb48158fd5b2da255a8bb216574996b81d2eb10b9bfb5",
        "efacet_measures": "841a1812d0d7889ad215c10c3a421230bf75b1c641fb516cff596826af13e433",
        "contact_mask": "fcb88f758b379810d155aa9c0b41f31fa534492b7e60903857ab2dcdfa99f26e",
        "facet_groups": "aaa91eb878f4b25f8693a4ba51c560f717fcde442b33fb84fcf73b7ec260d43f",
        "contact_measures": "d6daecffccade2422ca831666bfb80f38ef89ec238292c899b2f83392cb4a494",
        "anchors": "e59fd77a23f3e1525d59d81af0a3abc657d07dd8646ce23353e3c04c01a44f50",
        "rim_counts": "902ae42fad704b2d0e8a52abc6dd7ec075e57b6c15639e088ff19c06cc234bc1",
        "rim_rows": "8faf83538c7068d475a9fe45dad0c61ff4460878035846fff8e3560bdb52d252",
    },
    "L4/16": {
        "electrodes": "a2638cbe4490ca7c7f6c28c92d40554e64ed8e4f3d341eaf5faf01374e458229",
        "local_maps": "abf7b9ca25448d935934317001d6ac37e8cb188f6f29aa5c1a7d3ad5ac71ffea",
        "efacet_electrode": "52ac4ac12ca782271bfc86b6304f7afcba213e3aabd59a7d638925fa0b897b6f",
        "efacet_slices": "7e14f01afea3bfc2889094d2bec29cb40405e0a84489bdbb8a52e7af37d67b4c",
        "efacet_vertices": "fb524d584a0087c71c0c9cf8ccdf046a73e9e1831484e45c13fb13143cf4ddaf",
        "equad_local": "10161208c6a52396a89a0ec106be76a0dd235f56bb5b9e388a0eea829635e59c",
        "equad_weights": "a621874407c9ed2920817c6f23898e41a2803acf3a4e03d5dd0cb2a1f91b4a1d",
        "efacet_measures": "0efcfc6d428233e359b673ac2ceaebd892e03505b8ca1bd3a8107afbb871e341",
        "contact_mask": "fe14c5cc6993f0503ee8b3f5ab5371cf72a35b81499c933c641eeb2f443ec9f7",
        "facet_groups": "b43b94f06a826e49f238b59e6ec7f34fcf325fbd0929b31905c300c6ce788ad1",
        "contact_measures": "44aef2688e6863c5b674f8e61e1b0597065524cd56b8e94d3c8ab66c0271af4c",
        "anchors": "32ce392ce49518e29a662f82f6be18caca7296e007da91ef98e9c0cf3788a690",
        "rim_counts": "902ae42fad704b2d0e8a52abc6dd7ec075e57b6c15639e088ff19c06cc234bc1",
        "rim_rows": "1d1febc7f1019b863aca3c3a86207224f6c24f21584cdf9297c780e0a020ec0a",
    },
    "L5/16": {
        "electrodes": "facf2fe91174bfde50b9ecfa5d96fd00d73ea46c0647cb9e5d1e9f64df908fa0",
        "local_maps": "7623192dff3f91e0eccb87f90bbb8a460a21f11dcef583ef7e74b58e2859ec97",
        "efacet_electrode": "a8ffd8505dd3cba14787b7385740a3c0fce7d6a9b5f538cda2b8ff6720396405",
        "efacet_slices": "da31d2504eeeb73a461eec260c97aa447c5254d11db15b899032343f9592b1ed",
        "efacet_vertices": "edd26abdbc458ea270fe17701ade757046f29b9e2d7c6a1bbb0c6eb5f675e5e1",
        "equad_local": "04892a128141d2bce4d0dda03493fd319b7955aaa9508377d7cb2f1958beedb0",
        "equad_weights": "4e18752cede17fe4a0c1c1478f3561505a39b43c253464f9799b796fcab5b3da",
        "efacet_measures": "496fb3a7ea7ffe9ce644ce7ab4bd3e123cb8052df405a273455a3030b4592f33",
        "contact_mask": "a9d2a0628b7ccba51932be8f188805ef282fe47e0481eaa82d7c15ce6717b8e8",
        "facet_groups": "2968bf6d7c2d82903ae17aa99d10fa37bc123773861aadcdf72c65ed0db6b467",
        "contact_measures": "c90ccf14d6fe849fa5d78e9188fe8ae5a05d5afa7f2af21ff4c51f578e1345a5",
        "anchors": "67efea309d05e64b8b148c64c1f56b4101c11b7e423e5bb57162b739881ec51a",
        "rim_counts": "902ae42fad704b2d0e8a52abc6dd7ec075e57b6c15639e088ff19c06cc234bc1",
        "rim_rows": "81d2a74ff9b798caf61445c87cef8ce19fc2ae099cb26c74bbf2431d2d750626",
    },
    "cube": {
        "electrodes": "5f7ea793b8309d3d31c6d1819123766ee3bc3f307dbc7ce36736bc8ee7c17c6f",
        "local_maps": "091f8ab184b0ece00d16cd0c9d5e889f654b9647b73b47e067f54324af06e710",
        "efacet_electrode": "5f9dfee0f3f67894e32fc8cd463a828b72bbf5f9eb5afd7d7aee7955c9c73865",
        "efacet_slices": "740b8dcb640eff80e44cbb458235acd769203942d22494ba94b3e576543d02ff",
        "efacet_vertices": "2da0db225a015313447be37c2ace4427196b810f08b15bf27aab74135eb8ca15",
        "equad_local": "6f802701527278e30e11729392fbb1e46e84391bbb94faef13d924072f5eab20",
        "equad_weights": "bf1a55676a145467022effea9b361112914870744cbc17cc4b7bc8f8b5619efb",
        "efacet_measures": "35cfed92aebf53343099394ca0276765db0e0a1c005707d47c2d1b80650b2fc0",
        "contact_mask": "157482311ca7fa41f0e3c2a5667085ef806754a61707532020b757db8bf9f81c",
        "facet_groups": "eba7eee6d959895afdbe872a7eb00c1269301a809bb59bb4755ed6ed29196955",
        "contact_measures": "bc2880d80f34358e85bb6370ba1b1eefcdda8c6b5e29bbb8ca91efdd4ce05c5e",
        "anchors": "4cb1dd1455bfcf60b12093a8597a77ed9eb2d75baf0c67eadd293b8ac3b926d5",
        "rim_counts": "5112d1004f3a4fd187a61b1176482955cb92b747221d7be38feb81293f1225cf",
        "rim_rows": "c3cba6b143bfdd3fbcb65def58d06d49ef3d5465976339ae64046fc969e7821c",
    },
}


@pytest.fixture(scope="module")
def meshes():
    return {name: _mesh(name) for name in MESH_PINS}


@pytest.fixture(scope="module")
def layouts():
    return {name: _layout(name) for name in LAYOUT_PINS}


@pytest.mark.parametrize("name", list(MESH_PINS))
def test_mesh_arrays_are_pinned(meshes, name):
    got = {field: digest(meshes[name]) for field, digest in MESH_FIELDS.items()}
    assert got == MESH_PINS[name]


@pytest.mark.parametrize("name", list(LAYOUT_PINS))
def test_layout_arrays_are_pinned(layouts, name):
    got = {field: digest(layouts[name]) for field, digest in LAYOUT_FIELDS.items()}
    assert got == LAYOUT_PINS[name]
