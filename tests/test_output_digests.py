"""Byte-identity guard: SHA-256 digests of what commands and demos print.

Each case runs one command line through `cli.main` in process and hashes its
exit code, stdout and stderr together; each demo under `demos/` runs in
process too, and its stdout is hashed.  Each block of digests was recorded
before the refactor it guards: the first before the quadrature layer became
one lockstep driver, the L-value block before the consistency search's sums
began to give L(E, 2), its tail bound and its split-point spread, and the
candidate-file block before expressions were parsed by Python's `ast`.  So a
refactor that changes any printed byte, on a result or an error path, fails
here.  A deliberate change of a payload updates its digest and says so in
CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import runpy

import pytest

from mahlerlab import cli

#: (command line, digest of [exit code, stdout, stderr] as JSON)
DIGESTS = [
    ("verify all --format json", "08dd95be8832fc432c9412b0e5798ff11cf944b0825bb30cea013db91e799703"),
    ("verify all --format csv", "b68ed6fc03211bb5aba4752076b5cd9c580e9aa7ac717b5669cdc4b72add6f20"),
    ("verify all --k-grid 7:90:12 --format json", "6f68bf22cd4ed3cc1bb4601245a998d71374bd940ead0915dc6f1f90f9e1c97c"),
    ("verify all --k-grid 7:90:12 --format csv", "154a23e9468b855ea425ac7b4d264af9d25fa837d888b319e367b48a826df0f6"),
    ("verify thm-main --format json", "120efb04e5f53ec79ada0365fbf268d3b6ed1b91432acdcd52a9555e03fe99d7"),
    ("verify corollary --format json", "24f9d75310446adcb1fd915a54238ecea6ae087a6667c84efe9c9ba429162af8"),
    ("verify ei --format json", "6d8603fcdbbb623c8339aa299fcfcdf6a9885ff771fa2faf843f6f528843f2bd"),
    ("verify appendix --format json", "fda1d4d9757f884be7946dccae9f19122f03769ed2a034160feed7d8e57876ed"),
    ("verify jia --format json", "56b56c18b694331196de8c1b25881357a0905afedf7888bdfa69e3c00432f9bd"),
    ("verify lsz --format json", "26a082a6c7b293bac622912f69fcb8be9e9b88935438be89a925cbed0d9dacf2"),
    ("verify eta --format json", "494194a9303c6e84a07c699228a69787e1dc8a9f192368512e25c690344dea7b"),
    ("table --format json", "86de1632948670db0f682028e6fdda9434afc43e3bb573a7f35003eb45e0ef88"),
    ("mahler --k 1.8291 --format json", "02a6a37d41916346d78441ccf28e6ab33ad8c5213ffcc82be286370264ec493b"),
    ("mahler --k 5 --format json", "de143c45715acac7f9b855af017fc137a70c2f6759ffd81be149fff4cd822ff5"),
    ("mahler --k 8 --format json", "84d822fb38fe20a9a36743f5b90312ab6cc84fac69b974bc9154305b6b686867"),
    ("sweep f --k-grid 0.2:3.8:9", "a596c125883ce73cd7235aa237af36e1a433ddbc7a735180302e945de297f5e6"),
    ("sweep f --k-grid 4.3:6.3:7", "aeeab4edb480c6cb95759a061b50d415d212e5dfe913a1f3ac2cb65bc88a6a3f"),
    ("sweep f --k-grid 6.7:60:8", "b407e905a4d72683e99f562f38b620994024b870c1e4f854ab049d3bc09e4574"),
    ("sweep h --k-grid 4.3:6.3:7", "bed768b48bb7f1451be26960a05b70f374e7d37590b76d79b1a4a125cf3657fb"),
    ("sweep h --k-grid 6.7:60:8", "29c5cee180439db2992af3d6709d6b8d5fce210c6ec3ebce6921c869d9232a71"),
    ("sweep m_plus --k-grid 0.2:3.8:9", "e99d85e5c3559e70c878433d0981970e7442aa27d0c252a957f67d4d3c5001cd"),
    ("sweep m_plus --k-grid 4.3:6.3:7", "47d546ef64faa2c8dc5832e5db85870f7ab338dd173c493a67793bbfc47a75bf"),
    ("sweep m_plus --k-grid 6.7:60:8", "29c5cee180439db2992af3d6709d6b8d5fce210c6ec3ebce6921c869d9232a71"),
    ("sweep m_minus --k-grid 0.2:3.8:9", "5850ed887ee785cd554c0e5fa9738572a9565a9101c3ef33957bdd968eaecde8"),
    ("sweep m_minus --k-grid 4.3:6.3:7", "ff1267365d50101d00aa09b1de7422e9845921296501872754a2c6ed3bb3acdb"),
    ("sweep m_minus --k-grid 6.7:60:8", "c62d828c1593d872ae2c21234f7b8ae01cfe4bed022b6793b0a368b3b8c1c49f"),
    ("sweep dfdk --k-grid 4.3:6.3:7", "76167332c946b531e71b2e9ceb57304452295944b285f0ed3405a7c3f62243bf"),
    ("sweep dfdk --k-grid 6.7:60:8", "6f16e72881f15076fed466b56d2a66cb02e60eb3db3622d53d93d82dca49f96f"),
    ("sweep dhdk --k-grid 4.3:6.3:7", "ff28bd4312084b40bd23f949aafe5958e9993ec5fbc7487db64a0d23717816cc"),
    ("sweep dhdk --k-grid 6.7:60:8", "55a8ad15c3574e6c9d70c1f7b6219a0976b7af51678696eba97154e51c613599"),
    ("lvalue --k 8 --format json", "8ae3641db4330edfb2c4a8be8632f50027f8ea795d876f37f8deb5b3edc91b80"),
    ("ell --kind K --z 0.5 --format json", "34974251468b6bea8895d368565b54d46a9300ff802a84695a0df24e0ff39c7f"),
    ("ell --kind E --z 0.5 --format json", "ea87c06a8f380a8710f484bf345f6998d84499489c8efe96833dcd4826f2ede3"),
    ("ell --kind Pi --n -0.5 --z 0.5 --format json", "94fe7958e8103e43f974b12d2a6188f899e1110d50f2432329f456e70d69f266"),
    ("ell --kind K-imag --m 1.3 --format json", "39d15302502cdc2add25e1b3376ef814eca846662be552df7185e71a8ce7be55"),
    ("ell --kind Pi-imag --n -0.5 --m 1.3 --format json", "e6d78b7d284591596e6165c37a2555c651a54a04b87389a6f67152a06b5bb844"),
    ("verify thm-main --tol 1e-13 --format json", "fdd7a1b7d146d680e4c18a857abfa29f3bc9f20bd84eaf9f9e10458c9b763e39"),
    ("verify corollary --k 6 --format json", "e6ca46a9fda175d658e69230eee2ecbc5c41593bd587ad8443af280dfda43e44"),
    ("mahler --k 4 --format json", "03252098a1c74d0eab16964e760e3dd1cf9d273e525dfb0103ac5ca3c5612673"),
    ("sweep h --k-grid 3:5:3", "98cdc3732330b82b3693205dc5ea400f957f703f798cdcbff5a5417fd8443d94"),
    ("table --nmax 10 --format json", "e5206698ae03b05ad9ffcabe2afa3806bfb0202cd3c42b0b98b4e54508849721"),
    ("ell --kind Pi --n 1 --z 0.5 --format json", "04c266f79df028fc64b79b4d1ee2a5959f2fd91cde78c5de72a7a67260b64c3f"),
    ("sweep dfdk --k-grid 3:5:3", "ceb073bbcc9dc81d5d43045a80aa944c4917f52788d30da42dce77ac53b709fe"),
    ("sweep dhdk --k-grid 3:5:3", "89b531246db046a8c3b3bebd5f24054552a8558992328597cb4a88bbca695756"),
    # an integrated quantity at the 1e-13 floor
    ("sweep m_plus --k-grid 0.2:3.8:9 --tol 1e-13", "25abd69463ad7675f2bcf0d10a1247f49631af3e06625c08c6a89c5ed743c810"),
    ("ell --kind E --z 1.5", "e5c9ebab52d2349aef0ef9731023c63efafe8352f36694ef128269dff97a8519"),
    ("ell --kind K --z 1", "97e72af6dc160c91f0d914b44728ddaec5f03dcdb613442a94f0bec4744ea58e"),
    ("ell --kind Pi-imag --n 2 --m 0.5", "4bd66c3b24938a7b6420c5f486d3e2355a40b35368e726c3c4af9a1dca8592aa"),
    # where 1 + m^2 overflows: K(i m) = log(4m)/m, and a DomainError naming m for Pi
    ("ell --kind K-imag --m 1e160 --format json", "331a6428815633724bebbbd1f26952b6252f679aa3e831e1c5c29edac319ebdb"),
    ("ell --kind Pi-imag --n 0.5 --m 1e160", "9232b663a84613de89da9202c4ac5ff5fcb9822d6bce02e8de9de3f03f0f283b"),
    # every other table row's L-values, the CSV form, and the three L-value
    # refusals: the tail bound (lvalue and table) and the consistency search
    ("lvalue --k 1.0 --format json", "ebdc63d795b8b64cd5f7719445136c492d8be4c33697750121c081ae3f811b2b"),
    ("lvalue --k 1.4142135623730951 --format json", "f394452e889436f6da95acede87b548c8d0d4f5c7d31430dd38f63c100cec803"),
    ("lvalue --k 2.0 --format json", "49933a360cce58e9d36ec4d3a768aaf79d2e233329d0c9e2ed3336f83801888d"),
    ("lvalue --k 2.8284271247461903 --format json", "8f257cc793f01e97b3145979884b21f8278746649aaecf51ac216ba2c50d2a54"),
    ("lvalue --k 3.0 --format json", "419ccc0a99b33fa136a99eb41b99f80dbb7f6b1b69539020cf6d273f155ac916"),
    ("lvalue --k 4.242640687119285 --format json", "92fc8e8c0a314fcdad00aa97c9e6260b0116fe456d54953497214631717924bb"),
    ("lvalue --k 5.0 --format json", "105e21ae6fbafaa734bbee47d18c953557ea97b5c44344e8c093171a94b7e921"),
    ("lvalue --k 5.656854249492381 --format json", "8fd4a5b9a8f86de7d3cf5caa1737cf6a1b7449981b11355ce527a262f1ec75e9"),
    ("lvalue --k 12.0 --format json", "7da598c68d202e9b145744e733e5a84c2dbc0fab5bcfd0033f8f60c1e179681d"),
    ("lvalue --k 16.0 --format json", "468ac382a80fe2a6a7d7d2f2a204815bf5c1447c01a00ea307bec7d47fa6f37d"),
    ("lvalue --k 8 --format csv", "eabe49634b2b1c0af2b0b5b11df1e498f4ae11611d014138f1e0439c19bd162b"),
    ("lvalue --k 8 --nmax 22", "1d3e3a338e31e21096e844449fcfe4278e9247e7941a282c8fbe77b068950d30"),
    ("lvalue --k 8 --nmax 18", "4c8f6b793d55bdd85bf19e648c95805fb0b5960a12e0153cbd827100e71cffb4"),
    ("table --nmax 38 --format json", "b640b917277967b9c27878c2f334ea44521fc86b1613e8a0bd9f23907ebc88c8"),
    # every (command, --format) pair not pinned above, and the flags that
    # take a code path of their own (see test_every_command_and_format_is_pinned)
    ("ell --kind K --z 0.5 --format csv", "93aada5e7cddbd2a990b14e18fd992cd04e9be7aa241868b7ef0c7f217199c64"),
    ("mahler --k 8", "40974169bd782033d76e04d448235018c8c714903e05eb40680883bfb39373a2"),
    ("mahler --k 8 --format csv", "896e26d76776a44d02b06c9e6e15e91d86c4d5f2b3442c10a18ecd3724ead69d"),
    ("verify thm-main", "7616a5eeaf1c9ca25744dfb296c6b64375c83c4764a25f31a39bed1dab4f55f5"),
    ("table", "7dfdbd6ef16c5d2d1b34e17be78300788e065f980736c89e8123569c71628fe4"),
    ("table --format csv", "1b1e82820b4666553a665d05339f3deb63473c23924710dbe06423ce509d509b"),
    ("sweep f --k-grid 0.2:3.8:9 --format csv", "a596c125883ce73cd7235aa237af36e1a433ddbc7a735180302e945de297f5e6"),
    ("sweep f --k-grid 0.2:3.8:9 --format json", "f3a9c8b79e0e473cef3ad6c3f7c24ebf7cf3a6c47c23c02011e6677c6b15e7b6"),
    ("mahler --k 1.8291 --with-2d --format json", "b2b7c64cec819ba19744e01f04efae1c50f6e3f585526ed00f5d8ed01e9fde20"),
    ("mahler --k 1.8291 --with-2d", "b016318fcec7ef941583c762e3e9abce780d925c38e5ecf035b611d0e70153d5"),
    ("mahler --k 1.8291 --with-2d --format csv", "7d46a60f82bc7d8c7b9ffdc38dcf2991be70a5eb33030c19afd960ef71013d20"),
    ("lvalue --k 8 --dump-an an.txt", "c02894d303904d2af5cbcb851dad3817f5d35a14425249a81b4b971a5e86823a"),
    ("sweep h --k-grid 6.7:60:8 --jobs 2", "29c5cee180439db2992af3d6709d6b8d5fce210c6ec3ebce6921c869d9232a71"),
    # the candidate files below: the README's cubic, the benchmark's two file
    # candidates at interior anchors, and an exponent in x refused
    ("verify appendix --candidate-file cubic.json --format json", "4f967ee0e6b382800e8aef80c2f91af18f54350e72e60b1075568aa69c0abdc7"),
    ("verify appendix --candidate-file pair.json --format csv", "dd805750bbbde86a76a6ff2236f8a4fbab4432b6f59e8428e779a8ddde8ec551"),
    ("verify appendix --candidate-file xx.json", "7bb373c8814ac106c90a07725b0495ed246ac692054a5057c5341161c8a51e8c"),
]

#: candidate files written into each run's directory
CANDIDATE_FILES = {
    "cubic.json": [{"name": "cubic", "p": "-(x^2)/(1+2*x)", "q": "sqrt(x^3*(2+x)/(1+2*x))",
                    "domain": [0.0, 1.0], "anchor_x0": 0.5}],
    "pair.json": [{"name": "file-cubic", "p": "-(x^2)/(1+2*x)", "q": "sqrt(x^3*(2+x)/(1+2*x))",
                   "domain": [0.0, 1.0], "anchor_x0": 0.3141},
                  {"name": "file-linear", "p": "-x", "q": "x", "domain": [0.0, 1.0], "anchor_x0": 0.7183}],
    "xx.json": [{"name": "xx", "p": "x^x", "q": "x", "domain": [0.0, 1.0]}],
}

#: (command, flag, whether the parsed arguments set it) for each flag that
#: takes a code path of its own
PATH_FLAGS = [
    ("mahler", "--with-2d", lambda args: args.with_2d),
    ("lvalue", "--dump-an", lambda args: args.dump_an is not None),
    ("sweep", "--jobs 2", lambda args: args.jobs > 1),
    ("verify", "--candidate-file", lambda args: args.candidate_file is not None),
]


def _digest(argv: str) -> str:
    """The digest of argv's run; text mode's wall time on the closing
    "# overall:" line reads as 0.00s, so a slow run hashes like a fast one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
    text = re.sub(r"^(# overall: \w+ \(\d+ rows, )\d+\.\d\ds\)$", r"\g<1>0.00s)", out.getvalue(), flags=re.M)
    return hashlib.sha256(json.dumps([code, text, err.getvalue()]).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=[a for a, _ in DIGESTS])
def test_output_is_byte_identical(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --dump-an writes and candidate files are read
    for name, entries in CANDIDATE_FILES.items():
        (tmp_path / name).write_text(json.dumps(entries))
    assert _digest(argv) == digest


def test_every_command_and_format_is_pinned():
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted = {(name, fmt) for name, sub in commands.choices.items()
              for a in sub._actions if a.dest == "format" for fmt in a.choices}
    wanted |= {(name, flag) for name, flag, _ in PATH_FLAGS}
    pinned = set()
    for argv, _ in DIGESTS:
        args = parser.parse_args(argv.split())
        pinned.add((args.command, args.format))
        pinned |= {(name, flag) for name, flag, on in PATH_FLAGS if name == args.command and on(args)}
    assert sorted(wanted - pinned) == []


DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

#: (demo file, digest of its stdout)
DEMO_DIGESTS = [
    ("elliptic_integrals.py", "eb2eee495b4ceb31ed485ec29c36af88db08c7e5a88c3026852a8b601bde26c4"),
    ("eta_parametrization.py", "965ab4cfd9b55a3a1b6972cb809f884507caede98ea934cc358abd0770ede9f6"),
    ("identity_engine.py", "38c221b56332959282197496b9b00aa8fa6466572e3ca2e99d0a062da814bd1f"),
    ("lvalues_and_table.py", "22723ecc02a09151827ce62027c4127fed8902f3741750b3963695a0341743d5"),
    ("mahler_measures.py", "d95168958f20de1837d0654ad4dd3f93bec360e349f3a3d35b11f3d9cfb4bc13"),
]


@pytest.mark.parametrize("demo,digest", DEMO_DIGESTS, ids=[d for d, _ in DEMO_DIGESTS])
def test_demo_output_is_byte_identical(demo, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == [d for d, _ in DEMO_DIGESTS]
