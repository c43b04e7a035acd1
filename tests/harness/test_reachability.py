"""The harness lint's reachable-source contract, on synthetic packages."""

import textwrap

from repro.harness.lint import REACHABILITY_ALLOWLIST, check_reachability


def _package(tmp_path, **modules):
    """Write ``pkg/<name>.py`` per keyword (plus an empty
    ``__init__``); returns the package directory."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, source in modules.items():
        (package / f"{name}.py").write_text(textwrap.dedent(source))
    return str(package)


def _flagged(violations):
    return sorted(message.split(" ")[0] for _, _, message in violations)


def test_unreferenced_function_and_method_are_flagged(tmp_path):
    package = _package(tmp_path, mod="""
        def orphan():
            return orphan()  # naming itself is no use

        class Engine:
            def run(self):
                return 1

            def idle(self):
                return 0

            def __repr__(self):  # dunders are protocol hooks
                return "Engine"

        Engine().run()
    """)
    violations = check_reachability(package, allowlist={})
    assert _flagged(violations) == ["pkg.mod.Engine.idle", "pkg.mod.orphan"]
    assert {line for _, line, _ in violations} == {2, 9}


def test_attribute_and_getattr_string_references_count(tmp_path):
    package = _package(
        tmp_path,
        mod="""
            def helper():
                return 1

            def hook():
                return 2
        """,
        user="""
            from pkg import mod

            value = mod.helper()
            hook = getattr(mod, "hook")
        """,
    )
    assert check_reachability(package, allowlist={}) == []


def test_exports_and_plain_imports_do_not_count(tmp_path):
    package = _package(
        tmp_path,
        mod="""
            __all__ = ["exported"]

            def exported():
                return 1
        """,
        user="from pkg.mod import exported\n",
    )
    assert _flagged(check_reachability(package, allowlist={})) == [
        "pkg.mod.exported"
    ]


def test_unreferenced_constant_is_flagged(tmp_path):
    package = _package(tmp_path, mod="""
        #: Named by nothing else.
        LIMIT = 16
        SIZE, _OFFSET = 4, 2
        lower_case = 1  # not a constant: never flagged

        def total():
            return SIZE + lower_case

        total()
    """)
    violations = check_reachability(package, allowlist={})
    assert _flagged(violations) == ["pkg.mod.LIMIT", "pkg.mod._OFFSET"]
    assert sorted(line for _, line, _ in violations) == [3, 4]


def test_constant_named_as_module_attribute_counts(tmp_path):
    package = _package(
        tmp_path,
        mod="""
            LIMIT = 16
            UNUSED = 0
        """,
        user="""
            from pkg import mod

            def limit():
                return mod.LIMIT

            limit()
        """,
    )
    assert _flagged(check_reachability(package, allowlist={})) == [
        "pkg.mod.UNUSED"
    ]


def test_allowlisted_definition_is_not_flagged(tmp_path):
    package = _package(tmp_path, mod="def public():\n    return 1\n")
    allowlist = {"pkg.mod.public": "documented entry point"}
    assert check_reachability(package, allowlist=allowlist) == []


def test_stale_allowlist_entry_fails(tmp_path):
    package = _package(tmp_path, mod="x = 1\n")
    violations = check_reachability(
        package, allowlist={"pkg.mod.gone": "was public"}
    )
    assert len(violations) == 1
    assert "stale reachability allowlist entry pkg.mod.gone" in (
        violations[0][2]
    )


def test_allowlist_entry_for_a_used_definition_fails(tmp_path):
    package = _package(
        tmp_path,
        mod="def helper():\n    return 1\n",
        user="from pkg import mod\nvalue = mod.helper()\n",
    )
    violations = check_reachability(
        package, allowlist={"pkg.mod.helper": "was test-only"}
    )
    assert _flagged(violations) == ["pkg.mod.helper"]
    assert "drop its reachability allowlist entry" in violations[0][2]


def test_current_tree_is_clean():
    # Every repro definition is named from src/ or allowlisted, and
    # every allowlist entry names a live, otherwise unreferenced one.
    assert check_reachability() == []


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in REACHABILITY_ALLOWLIST.values())
