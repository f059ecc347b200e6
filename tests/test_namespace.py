"""The package namespace, which imports each public name's module on first use."""

import subprocess
import sys
import textwrap


def run_fresh(script):
    """Run ``script`` in a new interpreter, where no eigenspot module is imported yet."""
    res = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr


def test_a_bare_import_loads_no_submodule_until_one_is_used():
    run_fresh("""
        import sys
        import eigenspot
        assert not [m for m in sys.modules if m.startswith("eigenspot.")], sys.modules
        assert eigenspot.stscan.scan is sys.modules["eigenspot.stscan"].scan
        assert "eigenspot.evalsynth" not in sys.modules
    """)


def test_star_import_binds_each_name_to_its_defining_module():
    run_fresh("""
        import sys
        namespace = {}
        exec("from eigenspot import *", namespace)
        import eigenspot
        assert [n for n in eigenspot.__all__ if n not in namespace] == []
        for name in eigenspot.__all__:
            value = namespace[name]
            assert value.__module__.startswith("eigenspot."), (name, value.__module__)
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert getattr(eigenspot, name) is value, name
    """)


def test_dir_lists_every_public_name():
    run_fresh("""
        import eigenspot
        assert set(eigenspot.__all__) <= set(dir(eigenspot))
    """)


def test_an_unknown_name_raises_attribute_error_naming_it():
    run_fresh("""
        import eigenspot
        try:
            eigenspot.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("eigenspot.no_such_name resolved")
    """)
