"""One owner for each piece of a sweep's state.

`cli.main` reads the config once and passes it to the subcommand, and
harness.sweep_phase, cached on the frozen config, is the one site in the
package that builds an Agmon phase: the model, seal and phase that a sweep,
its rows, `sweep --check` and `pdwell wkb` read come from that one build.
Every smooth cutoff, the overlap cutoff chi_left included, is built in wkb,
so tunneling, which takes chi_left as an argument, imports nothing from it.
The scan covers every reference to a name, by name and by attribute;
imports and `__all__` strings are not references.
"""

import ast
import pathlib

import pdwell

SRC = pathlib.Path(pdwell.__file__).resolve().parent


def _owners(tree, name):
    """Qualified name of the function or class around each reference to
    name, "<module>" for one at module level."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
                yield from visit(child, inner)
                continue
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)):
                yield owner
            yield from visit(child, owner)
    return list(visit(tree, "<module>"))


def test_scanner_sees_every_reference():
    text = ("f = load_config\n"
            "def main(args):\n"
            "    return harness.load_config(args.config)\n"
            "class C:\n"
            "    def read(self):\n"
            "        def inner():\n"
            "            return load_config('x')\n"
            "        return inner\n")
    assert _owners(ast.parse(text), "load_config") == ["<module>", "main",
                                                        "C.read.inner"]
    imports = "from .harness import load_config\n__all__ = ['load_config']\n"
    assert _owners(ast.parse(imports), "load_config") == []


def test_cli_reads_the_config_only_in_main():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _owners(tree, "load_config") == ["main"]


def test_only_sweep_phase_builds_an_agmon_phase():
    found = [f"{path.name}:{owner}"
             for path in sorted(SRC.glob("*.py"))
             for owner in _owners(ast.parse(path.read_text()), "agmon_phase")]
    assert found == ["harness.py:sweep_phase"]


def test_every_cutoff_is_built_in_wkb():
    found = [f"{path.name}:{owner}"
             for path in sorted(SRC.glob("*.py"))
             for name in ("bump", "smoothstep")
             for owner in _owners(ast.parse(path.read_text()), name)]
    assert {f.split(":")[0] for f in found} == {"wkb.py"}
    assert "wkb.py:agmon_phase.chi_left" in found


def test_tunneling_imports_nothing_from_wkb():
    tree = ast.parse((SRC / "tunneling.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "spectra" in imported
    assert [name for name in imported if name.split(".")[-1] == "wkb"] == []
