"""Byte-identity pins for serialized families.

Each SHA-256 is taken over dumps_canonical(family_to_json(family)) as produced
by the reference implementation before the exact-arithmetic kernel was
optimized (plain Fraction-normalizing scalars, term-by-term substitution).
Any change to the arithmetic, the substitution kernel or the branch search
that alters a single byte of a family shows up here.  Anticommutant bases are
pinned the same way over dumps_canonical(basis_to_json(...)), and the exact
elimination primitives (rref, null_space_basis, mat_inverse), jordan_form and
the anticommutant cross-check over dumps_canonical of their outputs as grids.
"""

import hashlib
import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from ybx import ExactMatrix, JordanSpec, jordan_form, similarity_from_jordan, solve, to_original
from ybx.anticommutant import anticommutant_basis, anticommutant_in_original
from ybx.bundled import example_41_problem
from ybx.cli import main
from ybx.errors import SingularMatrix
from ybx.formats import basis_to_json, dumps_canonical, family_to_json, matrix_to_grid
from ybx.jordan import assemble_jordan
from ybx.matrices import mat_inverse, null_space_basis, rref
from ybx.oracle import cross_check_anticommutant, kron_anticommutant_kernel
from ybx.scalars import I, format_scalar

# (3, 3), (3, 3, 1), (3, 3, 1, 1), (3, 3, 2), (4, 2), (4, 2, 1) and
# (4, 2, 1, 1) here, and (3, 3, 2) at depths 1 and 2 below, are pinned from
# the search that visits the system in grade order
JORDAN_FRAME_HASHES = {
    (2, 2): "1fc36554f7074c229decd0a33a6cb87095b381a6481f08328e858649b453abc0",
    (3, 3): "a3550cf6fd6c47461376ee0ae635b004f1f6a5456d662ce32f66a3634f918574",
    (4, 3): "aa0a058ddd08f454261edea1e3957e3a6418ac8b731b7fe25af18cdc9453cc96",
    (2, 2, 2): "bb729ee0265607f179bb3d03d0db3b3b65f31895d82153697c9f62d30a032e53",
    (3, 3, 1): "a8217dcf32c2a05417e02a5c5a01a89127b298a14c80ae1bc44af151188b2e91",
    (4, 2, 2): "10ab1661433ef4e75b3cccdf23b3b16cfffe7fb1b87245ad5cd9a36e79092982",
    (3, 3, 2): "3f3407df85771fc595a047a4516e87dd300da7d76f13e0ef3d219e1e98505777",
    # the rest of the ladder, pinned from the search that still re-factored
    # every factor and built the template by dense scale-and-add
    (4, 4): "b24d2931762105fb14eaa7fe07b22fd19834c5a6b62f8d35a4daaa6ce126486a",
    (5, 3): "796b5d5297b00915b45cdb85e625d952bd8d0e8dec06059a5f5ec0456669f151",
    (5, 5): "7f73eac8b00b38524325a7440629a4bbbd5bdff6c54ada71ae95c41185e14ae8",
    (6, 4): "d4f6f493bf18fa1c00ba205caeebc501a8cf7e9f8952d0a7f9d2390ba390d064",
    (2, 2, 2, 2): "5450c2e0693dec28f1f896872f9ce3aa7e4ef14c7e6f78f1e38f73c844683f7b",
    # every other multi-block partition with n <= 8 (n = 9 follows), pinned
    # from the search that factored every equation again on every round
    (1, 1): "67db39feaecdd853e20cb33760b5a77a3fd769630d381e99d8afeb815f955fbb",
    (2, 1): "340a5204373aecfdca4f53eec189395215e420b6ea3d23aa5679d15d2af28ce1",
    (1, 1, 1): "71253523f90015ae1ad9afb0f1f20ccb33a0fdb1f20ae1eae8e2558a899b703e",
    (3, 1): "5aa4d8cd476042693cc79504026d3a92404183109a316f06035f2fe1495bf426",
    (2, 1, 1): "7abd909b03e9273ffb5471d6123fdc7b5ccfdf30c0b95fdb815160c4c5e98a0c",
    (1, 1, 1, 1): "cfc97266920197f0558c53453ffef144083d2956ccb63bc13233f299335e2e40",
    (4, 1): "83317b03021f12c8e0d5bfad80b731dd2caf092df7b0f65c9112607fa7dda904",
    (3, 2): "f74aa2af49c1792133c1c3a8573b78c34ecf002e23c4f733c3597d920ef79301",
    (3, 1, 1): "f73ddb8b4ec391aeddcab37953ba9c39519ac890aba142af3dfed35b4f865c69",
    (2, 2, 1): "4eaf2c883392af0420820ef8dc83ae6768f66c1c1a686a5537e52089be234f35",
    (2, 1, 1, 1): "2281cabb38ddd99bf20d6521c38203e3770ac9af8710475ae473ebdc0050d9ae",
    (1, 1, 1, 1, 1): "ff4258a460a58133d26a2c46416691d3532b2a7a001250979065a837fdc5db7a",
    (5, 1): "e41cca1e2c09d1bf711eeb502deefc6d400f64eef2ea40a289eb8a177d677a4f",
    (4, 2): "7566d43587f178fc0c3ab7a94626d1aa8a4660f408051e4492af8bf6a44d0ce4",
    (4, 1, 1): "0568d64a9e66d678b5575ac3e4d5755cf89c7395f156a0dcad80929e90bfad78",
    (3, 2, 1): "cc6386c0cb08dfca885024630b0af7bf6ecac9ecd824c7348c495d9e83fef553",
    (3, 1, 1, 1): "f647ed196601a33bc921aba1af23137bb9a407bbe62675fa54ac26c3968e9677",
    (2, 2, 1, 1): "fb8ed9394c1410b2151e04a796f8237267d1388b0573c9d1f7cbe332917e7448",
    (2, 1, 1, 1, 1): "96283b55cccb0248c970b43b186be8e38ec6dfd11b4f83035f93b463865b2782",
    (1, 1, 1, 1, 1, 1): "1531c82b38e1c0512e28fd5b5d1d341b3e8aba3357ed8994a4baa2445197d607",
    (6, 1): "8a911cc8aaadd77cb0fafc2c8a401996781799ec2caf9b7752e5acb172f91f40",
    (5, 2): "427f65d1dc51a8503057ff5011127732a092a519d72f54b366055101373f4f33",
    (5, 1, 1): "9ded6677ed186ca927335bfbca7bbd73edaef63decef2bbe4140f1a33bad5b92",
    (4, 2, 1): "fc8f7b1919475c908f20671ca6c4c00d963741c85e4b1ea65a0ec724258229fe",
    (4, 1, 1, 1): "6fb8ddb32ed08f40260a92b5b4b50f1a3f105579487e0bcc61c022d06f673b8b",
    (3, 2, 2): "c90ceded3e33cb0f850005ef80fa1ce13007b7fffdc7db5c83a9f55906db5bc2",
    (3, 2, 1, 1): "a0d765f5da456331d9bb62c4a1e3410b6dbef6ff6dbdf4cfc3cb3877a00abccc",
    (3, 1, 1, 1, 1): "10429cbd17d2f584625549b35009a508c37998f2daae9c903b384673042ae919",
    (2, 2, 2, 1): "ed1bd059ac7c6a5e7dd73063dc21f7f020976385af5bf5c91e70ed4262f7d635",
    (2, 2, 1, 1, 1): "5ef4aeabe198fb4e97e79f73b3c0ffc11f620b196fbd578ca15972cab80f12dd",
    (2, 1, 1, 1, 1, 1): "6a1658d0b2ecb7ce4c049912ecf87583cad906aab8fbc887e4b95f6eecd7b53f",
    (1, 1, 1, 1, 1, 1, 1): "549642c4202646a2238d5aa2251dbd02befc3cf2fc44ba6476310583e6ae9e23",
    (7, 1): "6e6d4d81257f2c48b3a0fd35615779bdd80c03ab64ce89453c6259f915a564a1",
    (6, 2): "c7c27cce1b9263d0c2822e631a389d7f946afb1fce48b04b0d0cfd60e255e313",
    (6, 1, 1): "e7a30fd4f30e218c6c014b4a07e26df6716c98507b8b471f7a62d77084314ec4",
    (5, 2, 1): "942fa6dc786c7bfefa8f3c9ff359aa70c8e21790320e25b9637031cbd2635686",
    (5, 1, 1, 1): "8fb0d0518aba03eaa0e8a2df275e6a9c05e37843c3c694a361db7f3a21e09135",
    (4, 3, 1): "18e37567d01134c81ccf773fcee065f91b3ca6450bd49036bf0a7d3600dfdbc3",
    (4, 2, 1, 1): "d8aa8fdea93f8324ec78df9375a3070bfe7091af62df452611e575517a645ce7",
    (4, 1, 1, 1, 1): "d501fb6ac57abffb9789ee7e26fdf553ccbe5a0986ea0931ff4398bcbb5af780",
    (3, 3, 1, 1): "99f2fada79e7a0c56c32945758e943c5c385906a3bdaecec908dd5d96c268752",
    (3, 2, 2, 1): "341308266f3d65ab377948bc2373d3f792893bbe1fbb1fb11c4d4ea2ac42d80a",
    (3, 2, 1, 1, 1): "302adb37e7e80d51a4e8d7ce8564ebc2fb831cb1e3a6e99137df5be2fae6cfaa",
    (3, 1, 1, 1, 1, 1): "d4a208b0d16556e9951d32da62968941d47c0503815ed12b8434a05e3f9cdf06",
    (2, 2, 2, 1, 1): "859842fab8ed8f0e2924dc9921f2984e4cc3a27c452a17844ec45bd6e9cfe74f",
    (2, 2, 1, 1, 1, 1): "46e820c477769d6e6d45ed925cb27fcf61f122af552553fbb6f9dc09a7203c5f",
    (2, 1, 1, 1, 1, 1, 1): "011f5a10ae04bdaa863ef158af49a9529a795c966268cb09ead439f01b8bbc2c",
    (1, 1, 1, 1, 1, 1, 1, 1): "ecbb1ffd52929ac48be563400b95b64321714218c8142ae070b57cb092ef058c",
    # every multi-block partition with n = 9, pinned from the search that
    # substituted into one polynomial at a time in Fraction arithmetic
    (8, 1): "0becd24bbae364ca101fb607642f0c3e36f8eb9b598fbbde549f418a712cefeb",
    (7, 2): "e9e6ebc3793ffc1a52c086f56f8434b9b7063590a42f3c0dcd8e0d6beaf4c6c9",
    (7, 1, 1): "e478204929c246b874a0e7d8dbcc1c87275415aa9943a7262f122c855a9dceaf",
    (6, 3): "cb4f7bda887aa066a4dbe866d5d8cdc660d3bfee46977b875e3c621914cb2703",
    (6, 2, 1): "5d53d9da306ad9131ffbfdb340fd9bf7c6db14da568bfc1ff4c2f29c20f67b35",
    (6, 1, 1, 1): "99ce0ce10a664da2e050b6638948639de6c53ece3c51883e38aff2d2ea96236f",
    (5, 4): "41d35e3d963296d5cbe183b22fa9fb7f6b67e4a6a2a8cbe252d36bb7693454d0",
    (5, 3, 1): "244589c1c489b5b415f8cc9496b21fd216b6797f51024cc0bf6e43dcff796dd6",
    (5, 2, 2): "2e39e776052cdf5a98edc5da6f1315d823d2425d0b26e410399df438d11f6989",
    (5, 2, 1, 1): "1647545a002922132b7cfcdb58770ccb81c83b2c9c82ca0a2b3437d4886a2ac4",
    (5, 1, 1, 1, 1): "8f7f6de5bacfdbd9e95292435a09bc3c9ee246e400c0c106378850c787163377",
    (4, 4, 1): "103391c7190a6bb96969cd6ff6d7af112562e733aa3e548433c583fc0aa5dd19",
    (4, 3, 2): "cd9b8e5b61328f6dbf67bd1a9d7ec1d5ba0e8b879f4106a5d1837af268e47476",
    (4, 3, 1, 1): "b7dda39019ce91dfa689abc1d8123acb789037179d9a837af8636d5661003bc2",
    (4, 2, 2, 1): "f96ea78e0cc673853959dd9e0f8b78c108feaaee975826da41a81803e42ef4ac",
    (4, 2, 1, 1, 1): "a38fa866faa8582e02f9a3e88f6233dfc5b7797f7ad629bb0931ce7481061493",
    (4, 1, 1, 1, 1, 1): "6088f13859d5291cc04d78714bbf4d2235490b9e5be12509c9a30f22136373e2",
    (3, 3, 3): "eb620f108358bfb98a852d6b20def33070698f5b29689ed2792227a316cf2e6c",
    (3, 3, 2, 1): "50f047e8766ca89d027c8b0ec4da57ad5ea373f4579a11fade001a8a10c69977",
    (3, 3, 1, 1, 1): "d83e845ab76f7bee6908b8bfcd115ee3732bb31be9593159d984e1ac340a4cd2",
    (3, 2, 2, 2): "29ba9e5783db6a9108283bb9a3171211e593e8947cd72fae4f2cde24b1f77481",
    (3, 2, 2, 1, 1): "72322292e8a805a2e96d428b36a25866a63d05efc4b91dc22871c06ecb667e3b",
    (3, 2, 1, 1, 1, 1): "11b739a1bec0ea3778ce9905cf4752ea9a1b431fca4da502d489274ef5323aca",
    (3, 1, 1, 1, 1, 1, 1): "11c33765a3776204dd642408cc143544e0aee82e5df35be4640aa72c9a67b295",
    (2, 2, 2, 2, 1): "6495b4ef0ca38648e4ccd40c94e1f95578c32e43fab0b152c6d382efd5154909",
    (2, 2, 2, 1, 1, 1): "2c1a82a8cdd679d0b7806d35ff4deaf8fa8248450d08d58b2b92796015852b32",
    (2, 2, 1, 1, 1, 1, 1): "cc537caeee4b3763599e6aa212ce0166ff4e72256fed48ee5a8a8c39f30c9a54",
    (2, 1, 1, 1, 1, 1, 1, 1): "c0c5752d5b389a3ae8a7332f1a0fc24f1ebef372d67576c2678702410361b21c",
    (1, 1, 1, 1, 1, 1, 1, 1, 1): "57cb25d820eef116fecc3ddf4e80829e2830f8c9ce5a30f9d8b19da5beabbf46",
    # single blocks, pinned from the hand-written closed forms (size 4 from
    # its special case through the branch search)
    (1,): "9895c535301795e3d211ff4f21c8d7a7706bed160e9ff5835d66e71e1898abef",
    (2,): "953473c343cbccde755c354f77b47e706a15fcc68489cc83b8b766b81bd87937",
    (3,): "302d75459581ce625cebc7715e5e039ff72fbaac08761a7eef7826bc8a0889f9",
    (4,): "34c95f8366fb3b870b9296e05db905889dc223c3b393295c9a1a5afc6394e173",
    (5,): "b26e1fe69154b918080e653d5376f7f20d93c7a597956836882ca72c7fe09e27",
    (6,): "a0b0bfefd8ca9f1120ef0d5e16dc144727ab6326355a74831507c9de3965f2e5",
    (7,): "66817a1a7581caea87ea3fc8a68bd5e06f4b5bc999cfd7ce606fee8fcf980050",
    (8,): "ff509d0fb8f313dd6bdbfd747199256ed370fb90a2c0aeceaa7f2828c9e52d81",
    (9,): "e6c686b559c282daa2ccbf14ace64e16f59f73509355f536eb838f324af39dd6",
    (10,): "2a910353917106913db5c97091765755ced38c986b53987d0a54aff2180270a4",
    (11,): "6b6ec2e24d6c15a91c403f73540020f169aa26fc151debffa38e5b72b38b3d2a",
    (12,): "5849bc2e76d7c530a6089421a479b1f2e25cc2d0d2db611cdb8ab70528442b2d",
}

# multi-block families cut by a small depth limit, so that their residual
# leaves carry the side conditions and denominators the depth cut records;
# pinned from the search whose leaves re-factored each denominator
DEPTH_LIMITED_HASHES = {
    ((4, 3), 0): "d9b773e2750c9b03441bf3752b274e492884ea3ac22f7b96a2f82162e692f9e2",
    ((4, 3), 1): "e08fb144e1aae7161d661ebe06f743a79980e1a634dae1591c8b107cf38b883e",
    ((4, 3), 2): "f9839677e954c7ba07a3821f739740639fd8da5038a9c03397666bdeba395a34",
    ((3, 3, 2), 0): "5bafd270e4e04e58833617a6af145ef7f2e4f5b1437d51aef18d4e644c79abb3",
    ((3, 3, 2), 1): "6bb7f7365ea44c645167ccf6de742b780be84bc0cf7379388aedeb681915f9da",
    ((3, 3, 2), 2): "2eb3f28bd7c2a10fa3946970ec79613389f10bfe27cec53b147c4338e4d1828b",
    ((2, 2, 2, 2), 0): "fd6dc03522f75e5b6b739f2a4bf61ebb93cdc2beb0c2b1009e4245371feff33d",
    ((2, 2, 2, 2), 1): "a6eaa33665f86b5f660199809ef6b65601343bd23a141130905faba1115864cf",
    ((2, 2, 2, 2), 2): "aadeea0db4140560a704fbbc98688450c7fa2a10ffbed89e27f03331474dfe3a",
}

# one nilpotent block of size 4 beside nonzero eigenvalues: the nilpotent
# template is embedded into the full 7x7 frame
EMBEDDED_SPEC = ((0, (4,)), (1, (2,)), (-1, (1,)))
EMBEDDED_HASH = "a51d36756b2277313beca4340119b3f7b726830d774aeb78d28f7f8ddddba501"

# det W8 = -72; the family solves A = W8 J W8^-1, J with blocks 0:(3,2), 1:(2), -1:(1)
W8 = [
    [1, 2, 0, -1, 0, 1, 0, 0],
    [0, 1, 1, 0, 2, 0, -1, 0],
    [1, 0, 1, 0, 0, 0, 1, 2],
    [0, -1, 0, 1, 1, 0, 0, 1],
    [2, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, -1, 1, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, -1, 1, 1],
    [1, 0, 0, 2, 0, 0, 0, 1],
]
ORIGINAL_FRAME_HASH = "785129ca0d564b7733aa7210ab7ae9d7d23e6954ae0a2c5e66d6926a62fceffe"

# A = W12 J W12^-1 given as a dense matrix with eigenvalues {0, 1, -1}:
# jordan_form must rebuild the same W, W^-1 and spec, and the family follows.
# These two hashes come from the term-by-term Fraction matrix product, before
# the integer-scaled one.
SPEC12 = ((0, (4, 3)), (1, (2, 1)), (-1, (2,)))
JORDAN_FORM_HASH = "57cff7f8ecdf9c872de5ae57faf46f5cee302314a92102031e2a637f766a4432"
JORDAN_FORM_FAMILY_HASH = "14cda656d96f1bc173eea32b086ed99faa0ba588984352b199d6c52790163b8e"

# every file `ybx example ID OUTDIR --seed S` writes, by name; the seed
# reaches the random checks and the report's `seed: S` line, so every file
# but report.txt agrees across seeds
_EXAMPLE_41_FILES = {
    "family_jordan.json": "bcdc20a4413b755351aaee19604a7611447e1b4c742cd580b8cbb6fea8958ae0",
    "family_original.json": "42f90daa93bc51bca3cc8ab273e4c80042e99e3856d7d9fec0ef06391c90b4e3",
    "problem.json": "a27e49a51baa7d8f3c655009b358a5e55c8992592c4d7c0267e9dc3dc6faed5d",
}
_EXAMPLE_42_FILES = {
    "family_jordan.json": "aa0a058ddd08f454261edea1e3957e3a6418ac8b731b7fe25af18cdc9453cc96",
    "problem.json": "bdf0a88498e91c7db8a4f023f7429a45135db8cb07e9bec907b9901b902a195d",
}
EXAMPLE_FILE_HASHES = {
    ("4.1", 0): {
        **_EXAMPLE_41_FILES,
        "report.txt": "e0f6c788f009a351566df63807a478dfcd0e3ca30262d71774d5fa484bc294b4",
    },
    ("4.1", 7): {
        **_EXAMPLE_41_FILES,
        "report.txt": "9d7ebc459bb44be3157d824d483513f807a3608adb1539c439bdc309a3057e72",
    },
    ("4.2", 0): {
        **_EXAMPLE_42_FILES,
        "report.txt": "b6c64851ab96d0a4428c5e3f6b8f41892401385de848f4003bfe3de1877be895",
    },
    ("4.2", 7): {
        **_EXAMPLE_42_FILES,
        "report.txt": "bba3aadc2e225c579db302f221160070496da08984e0ea66a4681ef95e818390",
    },
}


# Jordan-frame anticommutant bases {X : U X = -X V}, as (U, V) spec pairs;
# pinned from the implementation that materialized each r x r pattern and
# copied it into its block pair and then into the full basis element
ANTICOMMUTANT_PAIRS = {
    "multi-group": (
        ((0, (3, 1)), (1, (2, 2)), (-1, (3,))),
        ((0, (3, 1)), (1, (2, 2)), (-1, (3,))),
    ),
    "tall-and-wide": (((1, (4,)),), ((-1, (2, 5)),)),
    "complex": ((("1+1i", (3, 2)),), (("-1-1i", (2,)),)),
    "dimension-0": (((1, (2,)), (0, (1,))), ((2, (3,)),)),
}
ANTICOMMUTANT_HASHES = {
    "multi-group": "038664d45ccc2528e11b78e7980cd958ad4c05320f9c385f61a0844b723e7ef5",
    "tall-and-wide": "b62979e874661e83af1b1e06027d6ddabbbae60a19379f6e555bfd2f230ee408",
    "complex": "6b7f5e8e2fa6b35b95af6ae9ad0c49d5543ba2a217229eae2c16cf6ffebe8abc",
    "dimension-0": "9b05b5d2c16d8c2dc4888160f7c66c3ef7abd97e25f93da1311e25c5cd5a9610",
}

# the same construction in original coordinates, with integer W on both sides
ORIGINAL_LEFT = ((0, (2, 1)), (-1, (1,)))
ORIGINAL_RIGHT = ((0, (3,)), (1, (1,)))
W4_LEFT = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 2], [0, 1, 0, 1]]
W4_RIGHT = [[2, 0, 1, 0], [1, 1, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1]]
ANTICOMMUTANT_ORIGINAL_HASH = "442b3ae8bd63dd8723e1ad918cf8e1f7d6334419d165f8427fe505fb633b311e"

# `ybx anticommutant LEFT RIGHT OUTPUT` on a Jordan-only left problem and a
# right problem with its own W and its blocks out of canonical order
CLI_LEFT = {"jordan": [{"eigenvalue": "0", "sizes": [2, 1]}, {"eigenvalue": "1", "sizes": [2]}]}
CLI_RIGHT = {
    "jordan": [{"eigenvalue": "-1", "sizes": [1, 2]}, {"eigenvalue": "0", "sizes": [2]}],
    "w": [
        ["1", "0", "1", "0", "2"],
        ["0", "1", "0", "-1", "0"],
        ["1", "1", "0", "0", "1"],
        ["0", "0", "1", "1", "0"],
        ["2", "0", "0", "1", "1"],
    ],
}
CLI_ANTICOMMUTANT_STDOUT = (
    "matching block pairs (eigenvalue, opposite, rows, cols, contribution):\n"
    "         0         0    2    2    2\n"
    "         0         0    1    2    1\n"
    "         1        -1    2    1    1\n"
    "         1        -1    2    2    2\n"
    "dimension: 6\n"
    "wrote OUTPUT\n"
)
CLI_ANTICOMMUTANT_FILE_HASH = "52815c33979d03792295fcf93742795b2f617d5c31ce3d8b8c6741944bfe6a2a"


def _sha256(obj) -> str:
    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()


def _digest(family) -> str:
    return _sha256(family_to_json(family))


def _lu(n: int, pivots: dict[int, int]) -> ExactMatrix:
    """L U with unit triangular L, U over {-1, 0, 1, i} and the given diagonal pivots."""
    lower = [
        [(I if (i + j) % 5 == 0 else (i * i + 2 * j) % 3 - 1) if j < i else int(i == j)
         for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [(i + j * j) % 3 - 1 if j > i else pivots.get(i, 1) if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    return ExactMatrix.from_rows(lower) @ ExactMatrix.from_rows(upper)


def _w12() -> ExactMatrix:
    """The W of the n = 12 input: det 30."""
    return _lu(12, {3: 2, 7: 3, 10: 5})


def _grid(rows: int, cols: int, entry) -> ExactMatrix:
    return ExactMatrix.from_rows([[entry(i, j) for j in range(cols)] for i in range(rows)])


_P, _Q = 2**61 - 1, 1000003

# label -> (matrix, its rank); the rank-deficient ones are products through a
# narrow inner dimension
ELIMINATION_MATRICES = {
    "complex-5x7": (
        _grid(5, 3, lambda i, j: (i - 2 * j) % 4 - 1 + ((i + j) % 3 - 1) * I)
        @ _grid(3, 7, lambda i, j: Fraction((i * j + 1) % 5 - 2, j % 3 + 1) + (j - i) % 2 * I),
        3,
    ),
    "tall-7x4": (
        _grid(7, 2, lambda i, j: 0 if i == 3 else Fraction(i + 2 * j - 4, j + 2))
        @ _grid(2, 4, lambda i, j: (3 * i + j) % 5 - 2),
        2,
    ),
    "zero-3x4": (ExactMatrix.zeros(3, 4), 0),
    "square-4x4": (
        _grid(4, 2, lambda i, j: (i + 1) ** j - 2 * (j == 1 and i == 2))
        @ _grid(2, 4, lambda i, j: Fraction(j - 1, 3) + i * (j % 2) * I),
        2,
    ),
    "dense-8x8": (
        _grid(8, 8, lambda i, j: int(i == j) if j >= i else Fraction(i * 7 - j * 3, _P))
        @ _grid(8, 8, lambda i, j: 0 if j < i else Fraction(i + 2, _Q) if j == i
                else Fraction(5 * i - 3 * j + 1, _P) + Fraction(j - i, _Q) * I),
        8,
    ),
}
ELIMINATION_HASHES = {
    "complex-5x7": "4abb301c5158deec116634e4712647760cb49a249eadf0325c7932346f12d1d8",
    "tall-7x4": "dc6c5fbbd0d515f423a3eea40df9bca8306795ce0ee885c10158fa1ab9dbbeda",
    "square-4x4": "3a9e351d78eee1bac2dd08bc365c7855934f50f57ff90876c09cbbf55ba5dc41",
    "zero-3x4": "64eecaec838b42818358a889caaa658d639974a54076e58d2eb35cf384de9b2b",
    "dense-8x8": "576206343ddc28b925d78c22f9886b7fadb64c449eda0bff09fb2a3c3a513853",
}

# jordan_form on the bundled 4.1 matrix and on a dense n = 16 input built like
# the n = 12 one above
SPEC16 = ((0, (4, 3, 2)), (1, (2, 2)), (-1, (2, 1)))
JORDAN_FORM_MORE_HASHES = {
    "example-4.1": "8d4d1f54cdac6173401801dee0e0b36adbff4cc658a78f29f6bda808bdb507f3",
    "n16": "b2c14e3ba91a96db40018f1223b3218be1b438aae18266974ea2a86dff1b9234",
}

# cross_check_anticommutant on a multi-group pair, with the vectorized kernel
# basis it compares against
CROSS_CHECK_PAIR = (((0, (2, 1)), (1, (2,)), (-1, (1,))), ((0, (3,)), (-1, (2,)), (1, (1,))))
CROSS_CHECK_HASH = "c5790be3ab1ac76c4f0efb805f26f8d6b0b796ba4d09763002e92b4ecfd70d54"


@pytest.mark.parametrize("sizes", sorted(JORDAN_FRAME_HASHES))
def test_jordan_frame_family_bytes(sizes):
    family = solve(similarity_from_jordan(JordanSpec.from_pairs([(0, sizes)])))
    assert _digest(family) == JORDAN_FRAME_HASHES[sizes]


@pytest.mark.parametrize("sizes, depth", sorted(DEPTH_LIMITED_HASHES))
def test_depth_limited_family_bytes(sizes, depth):
    family = solve(similarity_from_jordan(JordanSpec.from_pairs([(0, sizes)])), depth)
    assert _digest(family) == DEPTH_LIMITED_HASHES[sizes, depth]


def test_embedded_single_block_family_bytes():
    family = solve(similarity_from_jordan(JordanSpec.from_pairs(EMBEDDED_SPEC)))
    assert _digest(family) == EMBEDDED_HASH


def test_original_frame_family_bytes():
    spec = JordanSpec.from_pairs([(0, [3, 2]), (1, [2]), (-1, [1])])
    sim = similarity_from_jordan(spec, ExactMatrix.from_rows(W8))
    assert _digest(to_original(solve(sim), sim)) == ORIGINAL_FRAME_HASH


def _similarity_digest(sim) -> str:
    spec = [[format_scalar(eig), list(sizes)] for eig, sizes in sim.spec.groups]
    return _sha256({"spec": spec, "w": matrix_to_grid(sim.w), "w_inv": matrix_to_grid(sim.w_inv)})


def test_jordan_form_bytes():
    a = similarity_from_jordan(JordanSpec.from_pairs(SPEC12), _w12()).a
    sim = jordan_form(a, ["0", "1", "-1"])
    assert _similarity_digest(sim) == JORDAN_FORM_HASH
    assert _digest(to_original(solve(sim), sim)) == JORDAN_FORM_FAMILY_HASH


@pytest.mark.parametrize("label", sorted(JORDAN_FORM_MORE_HASHES))
def test_jordan_form_more_bytes(label):
    if label == "example-4.1":
        problem = example_41_problem()
        a, eigenvalues = problem.matrix, problem.eigenvalues
    else:
        w16 = _lu(16, {2: 2, 5: -3, 9: 5, 13: 7})
        a, eigenvalues = similarity_from_jordan(JordanSpec.from_pairs(SPEC16), w16).a, [0, 1, -1]
    assert _similarity_digest(jordan_form(a, eigenvalues)) == JORDAN_FORM_MORE_HASHES[label]


def _elimination_record(m: ExactMatrix) -> dict:
    reduced, rank, pivots = rref(m)
    record = {
        "rref": matrix_to_grid(reduced),
        "rank": rank,
        "pivots": list(pivots),
        "kernel": [matrix_to_grid(v) for v in null_space_basis(m)],
    }
    if m.is_square():
        try:
            record["inverse"] = matrix_to_grid(mat_inverse(m))
        except SingularMatrix as exc:
            record["singular_rank"] = exc.rank
    return record


@pytest.mark.parametrize("label", sorted(ELIMINATION_MATRICES))
def test_elimination_bytes(label):
    m, rank = ELIMINATION_MATRICES[label]
    record = _elimination_record(m)
    assert record["rank"] == rank
    assert _sha256(record) == ELIMINATION_HASHES[label]


def test_cross_check_anticommutant_bytes():
    left, right = (JordanSpec.from_pairs(pairs) for pairs in CROSS_CHECK_PAIR)
    report = cross_check_anticommutant(left, right)
    assert report.span_match
    kernel = kron_anticommutant_kernel(assemble_jordan(left), assemble_jordan(right))
    data = {
        "expected": report.expected_dimension,
        "oracle": report.oracle_dimension,
        "kernel": [matrix_to_grid(k) for k in kernel],
    }
    assert _sha256(data) == CROSS_CHECK_HASH


@pytest.mark.parametrize("example, seed", sorted(EXAMPLE_FILE_HASHES))
def test_example_output_bytes(tmp_path, example, seed):
    with redirect_stdout(io.StringIO()):
        assert main(["example", example, str(tmp_path), "--seed", str(seed)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == EXAMPLE_FILE_HASHES[example, seed]


def _basis_digest(basis) -> str:
    return _sha256(basis_to_json(basis.left_dim, basis.right_dim, basis.parameter_names, basis.basis))


@pytest.mark.parametrize("label", sorted(ANTICOMMUTANT_PAIRS))
def test_anticommutant_basis_bytes(label):
    left, right = ANTICOMMUTANT_PAIRS[label]
    basis = anticommutant_basis(JordanSpec.from_pairs(left), JordanSpec.from_pairs(right))
    assert _basis_digest(basis) == ANTICOMMUTANT_HASHES[label]


def test_anticommutant_in_original_bytes():
    left = similarity_from_jordan(
        JordanSpec.from_pairs(ORIGINAL_LEFT), ExactMatrix.from_rows(W4_LEFT)
    )
    right = similarity_from_jordan(
        JordanSpec.from_pairs(ORIGINAL_RIGHT), ExactMatrix.from_rows(W4_RIGHT)
    )
    assert _basis_digest(anticommutant_in_original(left, right)) == ANTICOMMUTANT_ORIGINAL_HASH


def test_anticommutant_command_bytes(tmp_path):
    paths = []
    for name, problem in (("left.json", CLI_LEFT), ("right.json", CLI_RIGHT)):
        (tmp_path / name).write_text(dumps_canonical(problem))
        paths.append(str(tmp_path / name))
    out = tmp_path / "basis.json"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["anticommutant", *paths, str(out)]) == 0
    assert stdout.getvalue().replace(str(out), "OUTPUT") == CLI_ANTICOMMUTANT_STDOUT
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_ANTICOMMUTANT_FILE_HASH
