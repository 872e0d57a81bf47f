"""The public surface: the package's exported names and the CLI's commands.

Both are promised not to drift; a name added, renamed or dropped fails
here first.  So does a new read of one module's private name by another.
"""

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import cm7prime
from cm7prime import cli

PUBLIC_NAMES = [
    "Certificate", "CertificateFormatError", "JkValue", "ModulusCtx",
    "MontCurveCtx", "NonInvertibleError", "RunStats", "SieveReport",
    "TwistChoice", "Verdict", "VerdictKind", "VerifyStats", "XZPoint",
    "build_certificate", "double_chain", "forced_composite",
    "is_strongly_nonzero", "is_zero_mod", "iter_primes", "jacobi_symbol",
    "jk_closed", "jk_mod_stream", "jk_stream", "minimal_doubling_exponent",
    "montgomerize", "parse", "period_mod", "run_pipeline", "search",
    "select_twist", "serialize", "sieve_range", "sqrt_minus7", "survivors",
    "test_jk", "trace", "verify_certificate", "xz_double",
]

# subcommand -> its option strings, positionals by name
CLI_COMMANDS = {
    "test": {"k", "--json", "-h", "--help"},
    "search": {"kmin", "kmax", "--sieve-limit", "--jobs", "--out", "-h",
               "--help"},
    "certify": {"k", "--out", "-h", "--help"},
    "verify": {"file", "-h", "--help"},
}


def test_all_is_pinned():
    assert cm7prime.__all__ == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in cm7prime.__all__:
        assert getattr(cm7prime, name) is not None, name


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    sub, = [a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_subcommands_are_pinned():
    commands = {name: {s for a in p._actions
                       for s in (a.option_strings or [a.dest])}
                for name, p in _subparsers().items()}
    assert commands == CLI_COMMANDS


def _readme_section(heading: str) -> str:
    """The text of README.md under one "## " heading, up to the next."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_block_names_every_subcommand():
    block = _readme_section("Command line").split("```", 2)[1]
    assert set(re.findall(r"^cm7prime (\S+)", block, re.M)) == \
        set(_subparsers())


def test_readme_module_table_names_every_module():
    # the CLI has its own section, and __init__ is the package itself
    table = re.findall(r"^\| `cm7prime\.(\w+)`",
                       _readme_section("What is in the box"), re.M)
    modules = {path.stem
               for path in Path(cm7prime.__file__).parent.glob("*.py")}
    assert sorted(table) == sorted(modules - {"__init__", "cli"})


def test_readme_private_names_resolve():
    # the Performance notes cite thresholds and helpers by their private
    # names; each must name its home, a package module or a public
    # class, and still be there
    readme = Path(__file__).resolve().parent.parent / "README.md"
    prose = re.sub(r"```.*?```", "", readme.read_text(encoding="utf-8"),
                   flags=re.S)
    cited = [name for span in re.findall(r"`([^`]+)`", prose)
             for name in re.findall(r"(?<![\w.])(?:\w+\.)?_[A-Za-z]\w*",
                                    span)]
    assert cited
    for name in cited:
        home, _, attr = name.rpartition(".")
        if home in cm7prime.__all__:
            owner = getattr(cm7prime, home)
            assert isinstance(owner, type), name
        else:
            assert home and (Path(cm7prime.__file__).parent
                             / f"{home}.py").exists(), name
            owner = importlib.import_module(f"cm7prime.{home}")
        assert hasattr(owner, attr), name


# (reader, module._name): every private name one module of the package
# reads from another.  A new crossing fails here: give the name a public
# spelling, or add it with its reason.
PRIVATE_CROSSINGS = {
    ("sieve", "jk_sequence._recurrence"),  # the numpy engine, ROADMAP item 3
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, "" for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and \
            (node.module + ".").startswith("cm7prime."):
        return node.module[len("cm7prime."):]
    return None


def _private_crossings() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(Path(cm7prime.__file__).parent.glob("*.py")):
        reader = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _sibling(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "":  # from . import module [as name]
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.add((reader, f"{source}.{alias.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((reader, f"{modules[node.value.id]}.{node.attr}"))
    return found


def test_private_names_stay_inside_their_module():
    assert _private_crossings() == PRIVATE_CROSSINGS


def _package_imports(path: Path) -> set[str]:
    """The package modules one source file imports from."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            source = _sibling(node)
            if source == "":  # from . import module
                read.update(alias.name for alias in node.names)
            elif source is not None:
                read.add(source)
    return read


def test_certificate_imports_nothing_from_prover():
    # the builder doubles on its own and the verifier alone judges a
    # certificate, so no verdict of the prover's can leak into one
    read = _package_imports(Path(cm7prime.__file__).parent / "certificate.py")
    assert read and "prover" not in read


def test_no_module_imports_refcheck():
    # the oracles judge the package by other routes, so no module of it
    # may lean on them
    readers = {path.stem
               for path in Path(cm7prime.__file__).parent.glob("*.py")
               if "refcheck" in _package_imports(path)}
    assert readers == set()


def _top_level_imports(path: Path) -> set[str]:
    """The first dotted component of every absolute import in one file."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            read.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            read.add(node.module.split(".")[0])
    return read


def test_quad_ring_lives_only_in_the_tests():
    # trace_mod's ladder computes t_k for the package; Z[alpha] is the
    # independent route the tests check it against, so it ships with them
    assert importlib.util.find_spec("cm7prime.quad_ring") is None
    test_modules = {path.stem for path in Path(__file__).parent.glob("*.py")}
    assert "quad_ring" in test_modules
    readers = {path.stem
               for path in Path(cm7prime.__file__).parent.glob("*.py")
               if "quad_ring" in _package_imports(path)
               or _top_level_imports(path) & test_modules}
    assert readers == set()
