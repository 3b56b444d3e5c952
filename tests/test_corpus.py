"""The byte-identity corpus: every subcommand, every --format and every
--tie-policy at fixed sizes, each row pinned by its exit code, the length
and sha256 of its stdout, and the stderr text of a refusal.

Each row runs in process through run_cli. A change that means to alter an
output reprints the table with scripts/corpus_digests.py and names the rows
that moved; a change that does not must leave every row passing.
"""

import contextlib
import hashlib
import io
from typing import NamedTuple

import pytest

from capcycle.cli import run_cli


class Row(NamedTuple):
    argv: str  # split on whitespace
    code: int
    length: int  # of stdout, in bytes
    sha256: str  # of stdout
    stderr: str = ""


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 and length of what it is
    written, so a large output is not held."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.length = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.length += len(data)
        return len(text)


def outcome(argv: list[str]) -> tuple[int, int, str, str]:
    """run_cli(argv)'s exit code, the length and sha256 of its stdout, and
    its stderr."""
    stdout, stderr = _Digest(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(argv)
    return code, stdout.length, stdout.hash.hexdigest(), stderr.getvalue()


# Printed by scripts/corpus_digests.py. JSON at (30, 6) is left out: it lists
# 7.7 million 3-cycles.
CORPUS = [
    Row("matchup --a 1,1,4 --b 3,3,0", 0, 129,
        "a1835321523f75453b13814a37252a82cc62e97adfaf060d6fa38dca60dd6b34"),
    Row("matchup --a 1,1,4 --b 3,3,0 --format json", 0, 186,
        "e35babb28f29f168839a63ae51cc8985a0471d1b3c9f616bbfcdc3d1483625c9"),
    Row("matchup --a 1,1,4 --b 3,3,0 --format csv --label-a MTL --label-b NY", 0, 45,
        "0313b05debb165616b5591494b49418bd86cf75fe1dfb7f87ac66c2ed6172b49"),
    Row("matchup --a 9223372036854775808,0 --b 9223372036854775807,1 --format json", 0, 228,
        "5227f7cd8c37c4db4403fe21c0933f0a35deca0ac61263a16522a1c9acb33de1"),
    Row("matchup --a 1,-1 --b 0,0", 2, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: invalid allocation: salaries must be nonnegative, got -1\n"),
    Row("matchup --a 1,1,4 --b 3,3", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: allocations have different category counts: 3 vs 2\n"),
    Row("matchup --a 2,2,2 --b 7,0,0 --label-a BOS", 0, 179,
        "556ae3abae5da3dc06409ddd1e7792c9721b19af1e3b03cb5549bbeddc4acec4"),
    Row("enumerate", 0, 168,
        "dc2aa4f617b61f7b00070207b13323ede665c2610ce99ef7768d1b3a2b08df42"),
    Row("enumerate --partitions", 0, 42,
        "542d222805cca46c75ca39ee4c2df10b9446574496f1e09f840a89942a31e3b1"),
    Row("enumerate --budget 12 --k 4", 0, 3680,
        "b2c5786ea3617bcf01db4c5225175338958c6653ef0720273bb28f8d33d06802"),
    Row("enumerate --budget 12 --k 4 --partitions", 0, 276,
        "15924c1173a302c34bb6c66a9e421be250c8a19b5b0130c0eeea4586957a6063"),
    Row("enumerate --budget 20 --k 5 --partitions", 0, 2015,
        "8673730db5ae6e213ce20de93a830dbe289743c047e5435eac6ca1af25d97613"),
    Row("enumerate --budget 30 --k 6", 0, 4214364,
        "3cb77dd4cc5a0598e2905d6234d809d77e7b73300f23561af8ec9f6f1e90726e"),
    Row("enumerate --budget 30 --k 6 --partitions", 0, 15653,
        "0e03f2500100556854992fa4b2354a15a99639c94912224bcacebaeccdb3fbee"),
    Row("enumerate --budget 10 --k 12 --partitions", 0, 1009,
        "be39cf551f319bce286b0012e0159a1dec74a7737ac36c7b40e4eaef415f5176"),
    Row("enumerate --budget 3 --k 40", 0, 918400,
        "2d341aa73c21fec3433fd924004e9ad368935535e0a3e67e8e819a8ac711bb78"),
    Row("enumerate --budget 100000000000000000000 --k 1", 0, 22,
        "b5b644fc550fec16884c31f68449fc7b5a57044564e2c6f27e6f2a4510b705c3"),
    Row("enumerate --budget 1000000000000 --k 3", 3, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: 500000000001500000000001 compositions for budget 1000000000000, k 3 exceeds limit 100000000\n"),
    Row("enumerate --budget 20 --k 5", 0, 111265,
        "953d324ca0ca1fd9db29cc566ba6d2af8a02a9c013ba779752505ca52e919a3b"),
    Row("graph", 0, 813,
        "0df8e328dd913142f76cbc18c987e9636034fcd6e570753c8c17a6175e5dda65"),
    Row("graph --format json", 0, 961,
        "1d4d7704feaacd6325ae4ca78658a12ad5d8a5d16dcb3ec4ba633fe5e35157ef"),
    Row("graph --budget 12 --k 4", 0, 17778,
        "0431c1ca4cf6cdadf524145b0584bc95d2431e8c9074e90460414a395059d36f"),
    Row("graph --budget 12 --k 4 --format json", 0, 25989,
        "0e49f417484405b13f1fd9be8112467efe0e95c1c06b60336b26c58b511d9a5c"),
    Row("graph --budget 20 --k 5", 0, 579251,
        "1ea33d91bba270c7c2b1ff55dfe9e5b2294d7230956a9d3c21b071410edd8f79"),
    Row("graph --budget 20 --k 5 --format json", 0, 2934128,
        "5b0e6a9b675d373d78cb93d9fc0a1d3d76a14da07e10b62af6b55b7debfc7eca"),
    Row("graph --budget 30 --k 6", 0, 23926406,
        "beddc3a8ab0ad9e90d79cc36b8b5c16faea34dec7a9e51c8fb52b7faf99b65fc"),
    Row("graph --budget 10 --k 12", 0, 27481,
        "54287824b050f973fb93f270eec376bb4b7d01fe79d7a11c1560a30a0f9630a1"),
    Row("graph --budget 10 --k 12 --format json", 0, 37884,
        "e65610b83b979ed3e165cc675309d823f11891e47443d983bf2cf4f1392693d9"),
    Row("graph --budget 3 --k 40 --format json", 0, 900,
        "d07e78536cf1d76a44f02ca99d688cc5b3b8cd7285df3859284aba12402feaea"),
    Row("graph --budget 100000000000000000000 --k 1", 0, 74,
        "5c4e9ac1f08c366d6412dcd36fa7e76a6cd35afd490be25d7bb0ca0a621315e3"),
    Row("graph --budget 100000000000000000000 --k 1 --format json", 0, 253,
        "cce7d6cbf96f690ea36d0ed601cfa5bebd7790a7c41259d2dc4ef681672bec67"),
    Row("graph --budget 6 --k 0", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: k must be at least 1, got 0\n"),
    Row("graph --budget 0 --k 3 --format json", 0, 191,
        "aa965ac44ab4e982ab58f8c0523d3ba58f4f13dd4b5daae10c75991a2cc1e88d"),
    Row("counter --a 1,1,4", 0, 26,
        "94fc69fde626b346323db2544e2c68d326fd1d44748752d09922a9878f86977e"),
    Row("counter --a 2,2,2", 0, 26,
        "7fd5af524ad90935cb70eb009d3494b53d5a8ab007a6db705bdbd5d86d2d650a"),
    Row("counter --a 3,3,0 --budget 6", 0, 26,
        "5d97633de02bf42b67c90ed248bfb9890da3a32d95daf096890338295f8ecf25"),
    Row("counter --a 400,0,0,0", 0, 36,
        "d9e2485198e5c846cbaeba8a10f0c7ccfff17828a66d494999ae3516acc7ff49"),
    Row("counter --a 6", 0, 14,
        "7635f249493e65344458085b656dcd12ee5ad80e7445269c0f150d915220cd63"),
    Row("counter --a 100000000000000000000", 0, 14,
        "7635f249493e65344458085b656dcd12ee5ad80e7445269c0f150d915220cd63"),
    Row("counter --a 1,1,4 --budget 7", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: counter search budget 7 must equal the allocation's budget 6\n"),
    Row("counter --a 9223372036854775808,9223372036854775809", 3, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: at least 9223372036854775809 partitions for budget 18446744073709551617, k 2 exceeds limit 100000000\n"),
    Row("analyze", 0, 829,
        "1a2fa5096963e6fdb9ee053d6d084ddd4dc1f52e04a48fc8a716d178fbd52882"),
    Row("analyze --format json", 0, 1412,
        "aac2ed73b81975205816158a433532e2d4fee9813e8038e96b071ea1ca37b471"),
    Row("analyze --budget 12 --k 4", 0, 2125,
        "d28e8aec15c83a7411285fd260e927f9750545f3951de152657e896ef17ae3f6"),
    Row("analyze --budget 12 --k 4 --format json", 0, 28159,
        "4fcc7ddbcad3c2848b6af198e4cb3169cc1d90edf17008d34b657eb1cf0a3cae"),
    Row("analyze --budget 20 --k 5", 0, 9159,
        "abb5c9bd6bc9594e2ba5e2f2b3ab61509bc80be52e9511f42237ca0eac7cd2a7"),
    Row("analyze --budget 20 --k 5 --format json", 0, 2947408,
        "bf23c1f32083df55a34b6995043d83cb2c5084f178261dfa0b44d94e63befde9"),
    Row("analyze --budget 30 --k 6", 0, 58776,
        "39777c7f4e26a1b8e57e69b45c26b80643c5efef60604b480552e96baefc743c"),
    Row("analyze --budget 10 --k 12", 0, 3926,
        "f715fd0bb26bb9d3d90d6b7798b80d29a056811c1e6425807d33b97b37c04a60"),
    Row("analyze --budget 10 --k 12 --format json", 0, 42579,
        "4ad6de75ed41e55ffb63c96abe70d9458fa012d70f2c3d72d0c91d49cabcb157"),
    Row("analyze --budget 3 --k 40", 0, 953,
        "76163f19b0a1ddf9f87aabeabde1ea403bf8bab499490cbd6efee4c986f7e8f6"),
    Row("analyze --budget 3 --k 40 --format json", 0, 1687,
        "ae5c3ff8d4dc5c5c2e6c03a7ac95bc338eb888754da52af88fcf1c4c663b39fe"),
    Row("analyze --budget 100000000000000000000 --k 1 --format json", 0, 381,
        "295ff0bdc051d008659911bb7fa2576a022035cafcbdd53b50000c51ee1df8fd"),
    Row("analyze --budget -1 --k 3", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: budget must be nonnegative, got -1\n"),
    Row("analyze --budget 0 --k 3", 0, 356,
        "2ca20746172d328d1374a3da5eb77527998df2a777e46db3239af66ea94ad794"),
    Row("analyze --budget 100000000000000000000 --k 1", 0, 424,
        "4b13b395657116924bdbd240cf9b5cf6c305aba01fd0fbb427c2d03e4eb28925"),
    Row("analyze --budget 1000000000000 --k 3", 3, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: at least 83333333333833333333334 partitions for budget 1000000000000, k 3 exceeds limit 100000000\n"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 10000 --seed 1", 0, 172,
        "4f1d45ea656d510b4ef1ce9ff9bc6d92378e4af3a8562324fa93ce582928933f"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 10000 --seed 2 --format json", 0, 233,
        "96f5dcdc8c406d2616837d8249c5270218b8517faf5eebcd6887d933ee89e655"),
    Row("simulate --a 3,2,1 --b 2,2,2 --games 10000 --seed 1 --tie-policy nogame", 0, 166,
        "93d7bbaf5fcee73b0b04ac05d31fcc9fa0d9c281a5d3263a5fe1e79b462a7e0a"),
    Row("simulate --a 3,2,1 --b 2,2,2 --games 10000 --seed 2 --tie-policy nogame --format json", 0, 236,
        "b1486097de83dd6347e79c4eaaded4b743c6d542bb464b990b8c7e7f72511a20"),
    Row("simulate --a 2,2,2 --b 2,2,2 --games 100 --seed 1", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: every cell ties; reroll play can never finish a game\n"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 10 --seed 1 --series 3", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: --series requires --best-of\n"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 1 --seed 7 --best-of 1 --series 2000", 0, 222,
        "83aae5b3fa17aa59f3e02069c1ae98bd48c751c7b3e7e977d6a15273927646fc"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 1 --seed 7 --best-of 7 --series 500 --format json", 0, 232,
        "a737d9a6b45c0da437940bd171770340d85fc3a80fa7f9af46f84d7286837893"),
    Row("simulate --a 3,2,1 --b 2,2,2 --games 1 --seed 3 --best-of 7 --series 500 --tie-policy nogame", 0, 215,
        "7cf2ca3490385dadb7f3c745f8d2353fb9e7a9215e94d0552d911f19e74168e5"),
    Row("simulate --a 2,2,2 --b 2,2,2 --games 100 --seed 1 --tie-policy nogame", 0, 180,
        "3f70c2ae82daa77637a94b3ad6fa4b918cc06999c9e5fd1a351b72f10bbc2efe"),
    Row("simulate --a 1,1,4 --b 3,3,0 --games 10 --seed 1 --best-of 4", 1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "capcycle: best_of must be odd and positive, got 4\n"),
    Row("simulate --a 9223372036854775808,0 --b 9223372036854775807,1 --games 1000 --seed 1", 0, 237,
        "e06c5f0423d2745366ebedf1f879abb0793f5e1d66804e5c3f597fbb06a6ebeb"),
]


@pytest.mark.parametrize("row", CORPUS, ids=[row.argv for row in CORPUS])
def test_output_is_unchanged(row):
    assert outcome(row.argv.split()) == row[1:]


# The first row of each subcommand that exits 0.
FILE_ROWS = {}
for _row in CORPUS:
    if _row.code == 0:
        FILE_ROWS.setdefault(_row.argv.split()[0], _row)


@pytest.mark.parametrize("row", FILE_ROWS.values(), ids=list(FILE_ROWS))
def test_out_file_holds_the_stdout_bytes(row, tmp_path):
    target = tmp_path / "out"
    nothing = hashlib.sha256().hexdigest()
    assert outcome([*row.argv.split(), "--out", str(target)]) == (0, 0, nothing, "")
    data = target.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (row.length, row.sha256)
