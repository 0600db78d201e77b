import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# the helper modules' asserts (the oracles' witness checks among them) run
# also under ``python -O``, as the test modules' own asserts do
pytest.register_assert_rewrite("oracles", "generators")

from ntg import Rgs, parse_fo, parse_rgs

DATA = pathlib.Path(__file__).parent / "data"


def load_rgs(name: str) -> Rgs:
    return parse_rgs((DATA / name).read_text())


# Valid documents on which a bare per-symbol counter would name an unfolded
# copy after a symbol that is already there: the root ``f@1`` calls ``f``
# once or twice, or an atomic symbol ``f@1`` sits beside a shared ``f``.
COPY_NAME_CLASHES = {
    "root-called-once": (
        "atomic app/2, c/0, d/0;\nroot f@1;\n"
        "def f@1/0 { o: out(a); a: app(x, k); x: f; k: d; }\ndef f/0 { o: out(k); k: c; }\n"
    ),
    "root-called-twice": (
        "atomic app/2, c/0;\nroot f@1;\n"
        "def f@1/0 { o: out(a); a: app(x, y); x: f; y: f; }\ndef f/0 { o: out(k); k: c; }\n"
    ),
    "atomic": (
        "atomic app/2, f@1/0;\nroot r;\n"
        "def r/0 { o: out(a); a: app(x, y); x: f; y: f; }\ndef f/0 { o: out(k); k: f@1; }\n"
    ),
}


@pytest.fixture(scope="session")
def fix_n():
    return load_rgs("n.rgs")


@pytest.fixture(scope="session")
def fix_triv():
    return load_rgs("triv.rgs")


@pytest.fixture(scope="session")
def fix_r0():
    return load_rgs("r0.rgs")


@pytest.fixture(scope="session")
def fix_r1():
    return load_rgs("r1.rgs")


@pytest.fixture(scope="session")
def sharing_chain():
    """The four sharing-chain fixtures, most shared first."""
    return [load_rgs(f"chain_{x}.rgs") for x in "abcd"]


@pytest.fixture(scope="session")
def n_flattened():
    return parse_fo((DATA / "n_flattened.fo").read_text())


@pytest.fixture(scope="session")
def tree_corpus(fix_n, fix_triv, fix_r0, sharing_chain):
    """Every tree-shaped specification in the corpus (shared ones unfolded)."""
    from ntg import unfold_to_ntg

    return [fix_n, fix_triv, unfold_to_ntg(fix_r0).rgs] + sharing_chain
