"""Byte-identity guard: SHA-256 digests of what commands print.

Each case runs one command line through `cli.main` in process and hashes its
exit code, stdout and stderr together.  The digests were recorded before the
quadrature layer became one lockstep driver, so a refactor that changes any
printed byte, on a result or an error path, fails here.  A deliberate change
of a payload updates its digest and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mahlerlab import cli

#: (command line, digest of [exit code, stdout, stderr] as JSON)
DIGESTS = [
    ("verify all --format json", "f531a10a43ae6f2f45526834da54aa722e5b2f516a958474cbe4128c686d5b7f"),
    ("verify all --format csv", "3bd17e2930fe1f00d19aa221844905c5d239c41708d67450d2ccfc6c38b75839"),
    ("verify all --k-grid 7:90:12 --format json", "1843f3037af33f899d1a854d343bfedbc9b7bd8e57851724e7599d32be57a34d"),
    ("verify all --k-grid 7:90:12 --format csv", "6a81754e2a4a57e1594546eed90dc5e49c25ab74f2ec4502a8266184ed02d772"),
    ("verify thm-main --format json", "120efb04e5f53ec79ada0365fbf268d3b6ed1b91432acdcd52a9555e03fe99d7"),
    ("verify corollary --format json", "24f9d75310446adcb1fd915a54238ecea6ae087a6667c84efe9c9ba429162af8"),
    ("verify ei --format json", "819a7938df634467fa3249d727e24da827b415f5d179c9f212d2697bcf4df2e9"),
    ("verify appendix --format json", "061386831ba5229d35f46855d79240b6305e1df1263f28de72648b400acdf691"),
    ("verify jia --format json", "1edff05ec5508bc2629fdf214a4fe59a3952f2c99b6f0a9927f545dbbbe14019"),
    ("verify lsz --format json", "26a082a6c7b293bac622912f69fcb8be9e9b88935438be89a925cbed0d9dacf2"),
    ("verify eta --format json", "494194a9303c6e84a07c699228a69787e1dc8a9f192368512e25c690344dea7b"),
    ("table --format json", "86de1632948670db0f682028e6fdda9434afc43e3bb573a7f35003eb45e0ef88"),
    ("mahler --k 1.8291 --format json", "02a6a37d41916346d78441ccf28e6ab33ad8c5213ffcc82be286370264ec493b"),
    ("mahler --k 5 --format json", "de143c45715acac7f9b855af017fc137a70c2f6759ffd81be149fff4cd822ff5"),
    ("mahler --k 8 --format json", "84d822fb38fe20a9a36743f5b90312ab6cc84fac69b974bc9154305b6b686867"),
    ("sweep f --k-grid 0.2:3.8:9", "2817afa5a6260b3145458edbaa8494605694994d231fd0a9ae389fbd1a9f99f4"),
    ("sweep f --k-grid 4.3:6.3:7", "4d6fb5a08003e8e83268ebdfaad7782959f807d47bada6e24daa05ef19e9b375"),
    ("sweep f --k-grid 6.7:60:8", "b407e905a4d72683e99f562f38b620994024b870c1e4f854ab049d3bc09e4574"),
    ("sweep h --k-grid 4.3:6.3:7", "89749906696542ba8bd6b1a744a149f6ec897f35bf67db0830406c939585d791"),
    ("sweep h --k-grid 6.7:60:8", "4e550643c7a532cabc9337233110682fbc5e9ab988bc8f558acc794f7e4100e3"),
    ("sweep m_plus --k-grid 0.2:3.8:9", "d55c3d3ab1e381dab79b2ba293660480540855b927d58ca3c5aeb0c5f262f1e6"),
    ("sweep m_plus --k-grid 4.3:6.3:7", "994ee0bd3054846f383f8318fe4aa5fd4ad8d30129ad1dd5d17b1863ebe76531"),
    ("sweep m_plus --k-grid 6.7:60:8", "4e550643c7a532cabc9337233110682fbc5e9ab988bc8f558acc794f7e4100e3"),
    ("sweep m_minus --k-grid 0.2:3.8:9", "9dbc3d2aba3a2140f66678b931c2feab4aa2258d323f3f222e7d40bc342d6a71"),
    ("sweep m_minus --k-grid 4.3:6.3:7", "413a60238ddd9131ccc985a0a86310feec800492c4a938e92e39ded5703efc64"),
    ("sweep m_minus --k-grid 6.7:60:8", "d437ab871e799d9488a913a17047307656aeb9986f7dc8510fa1a61cc0820005"),
    ("sweep dfdk --k-grid 4.3:6.3:7", "76167332c946b531e71b2e9ceb57304452295944b285f0ed3405a7c3f62243bf"),
    ("sweep dfdk --k-grid 6.7:60:8", "6f16e72881f15076fed466b56d2a66cb02e60eb3db3622d53d93d82dca49f96f"),
    ("sweep dhdk --k-grid 4.3:6.3:7", "ff28bd4312084b40bd23f949aafe5958e9993ec5fbc7487db64a0d23717816cc"),
    ("sweep dhdk --k-grid 6.7:60:8", "55a8ad15c3574e6c9d70c1f7b6219a0976b7af51678696eba97154e51c613599"),
    ("lvalue --k 8 --format json", "8ae3641db4330edfb2c4a8be8632f50027f8ea795d876f37f8deb5b3edc91b80"),
    ("ell --kind K --z 0.5 --format json", "34974251468b6bea8895d368565b54d46a9300ff802a84695a0df24e0ff39c7f"),
    ("ell --kind E --z 0.5 --format json", "f435c003001fc885cb3cea44016d0d2d231b50adee22fb272bd614daad7117bb"),
    ("ell --kind Pi --n -0.5 --z 0.5 --format json", "94fe7958e8103e43f974b12d2a6188f899e1110d50f2432329f456e70d69f266"),
    ("ell --kind K-imag --m 1.3 --format json", "39d15302502cdc2add25e1b3376ef814eca846662be552df7185e71a8ce7be55"),
    ("ell --kind Pi-imag --n -0.5 --m 1.3 --format json", "e6d78b7d284591596e6165c37a2555c651a54a04b87389a6f67152a06b5bb844"),
    ("verify thm-main --tol 1e-13 --format json", "fdd7a1b7d146d680e4c18a857abfa29f3bc9f20bd84eaf9f9e10458c9b763e39"),
    ("verify corollary --k 6 --format json", "e6ca46a9fda175d658e69230eee2ecbc5c41593bd587ad8443af280dfda43e44"),
    ("mahler --k 4 --format json", "03252098a1c74d0eab16964e760e3dd1cf9d273e525dfb0103ac5ca3c5612673"),
    ("sweep h --k-grid 3:5:3", "dc88fdf5ee4028f87a673e1cef98fa7a2b1a17855c8b280c7639c1ee8c3ec60b"),
    ("table --nmax 10 --format json", "e5206698ae03b05ad9ffcabe2afa3806bfb0202cd3c42b0b98b4e54508849721"),
    ("ell --kind Pi --n 1 --z 0.5 --format json", "04c266f79df028fc64b79b4d1ee2a5959f2fd91cde78c5de72a7a67260b64c3f"),
    ("sweep dfdk --k-grid 3:5:3", "ce1ca63fbd55bcabde7fc36cc61d7ebc80cf5acc11c10fe7ad1fc3d1e508f27f"),
    ("sweep dhdk --k-grid 3:5:3", "a7a7f741c3b324f2f694ada306f173d466666f519b1b77e089bb608987af0103"),
    ("ell --kind E --z 1.5", "e5c9ebab52d2349aef0ef9731023c63efafe8352f36694ef128269dff97a8519"),
    ("ell --kind K --z 1", "97e72af6dc160c91f0d914b44728ddaec5f03dcdb613442a94f0bec4744ea58e"),
    ("ell --kind Pi-imag --n 2 --m 0.5", "4bd66c3b24938a7b6420c5f486d3e2355a40b35368e726c3c4af9a1dca8592aa"),
    # where 1 + m^2 overflows: K(i m) = log(4m)/m, and a DomainError naming m for Pi
    ("ell --kind K-imag --m 1e160 --format json", "331a6428815633724bebbbd1f26952b6252f679aa3e831e1c5c29edac319ebdb"),
    ("ell --kind Pi-imag --n 0.5 --m 1e160", "9232b663a84613de89da9202c4ac5ff5fcb9822d6bce02e8de9de3f03f0f283b"),
]


def _digest(argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=[a for a, _ in DIGESTS])
def test_output_is_byte_identical(argv, digest):
    assert _digest(argv) == digest
