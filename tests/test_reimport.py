import gc
import importlib
import sys
import weakref

from conftest import DATA


def _drop_ntg_modules():
    return {m: sys.modules.pop(m) for m in list(sys.modules) if m == "ntg" or m.startswith("ntg.")}


def test_reimport_releases_the_previous_copy():
    # A module-level typing subscript over the package's classes lands in
    # typing's internal cache, which then pins every module of the copy.
    saved = _drop_ntg_modules()
    try:
        old = importlib.import_module("ntg")
        old.print_rgs(old.ntg_collapse(old.parse_rgs((DATA / "n.rgs").read_text())))
        ref = weakref.ref(old.TermGraph)
        del old
        _drop_ntg_modules()
        importlib.import_module("ntg")
        gc.collect()
        assert ref() is None
    finally:
        _drop_ntg_modules()
        sys.modules.update(saved)


def test_a_previous_copy_keeps_working_after_a_reimport():
    # a specification of one copy of the package is flattened and collapsed
    # by that copy's first-order module, whatever copy is imported later
    text = (DATA / "n.rgs").read_text()
    saved = _drop_ntg_modules()
    try:
        old = importlib.import_module("ntg")
        _drop_ntg_modules()
        new = importlib.import_module("ntg")
        n = old.parse_rgs(text)
        assert old.print_fo(old.interpret(n)) == new.print_fo(new.interpret(new.parse_rgs(text)))
        assert old.print_rgs(old.ntg_collapse(n)) == new.print_rgs(new.ntg_collapse(new.parse_rgs(text)))
    finally:
        _drop_ntg_modules()
        sys.modules.update(saved)


def test_helper_modules_have_their_asserts_rewritten():
    # rewritten asserts run also under ``python -O``, which drops the
    # plain asserts of modules imported outside pytest's rewriting
    import generators
    import oracles

    assert all("@py_builtins" in vars(m) for m in (generators, oracles))
