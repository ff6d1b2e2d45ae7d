"""The modules of the package import one another without a cycle. Imports
made inside functions count too: a lazy import is how a cycle gets past the
interpreter."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "permlat"
MODULES = {path.stem: path for path in SRC.glob("*.py")}


def imported_modules(path):
    """The package modules that ``path`` imports, anywhere in its body;
    ``__init__`` stands for the package itself."""
    out = set()

    def add(dotted, names=()):
        # dotted: the module path inside the package, "" for the package
        head = dotted.split(".")[0]
        if head:
            out.add(head)
        else:
            out.update(n if n in MODULES else "__init__" for n in names)

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level == 1:
                add(node.module or "", names)
            elif node.level == 0 and node.module and (
                    node.module == "permlat" or node.module.startswith("permlat.")):
                add(node.module[len("permlat."):], names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("permlat."):
                    add(alias.name[len("permlat."):])
    return out


GRAPH = {name: imported_modules(path) for name, path in MODULES.items()}


def find_cycle(graph):
    """A list of modules that import one another in a ring, or None."""
    state = {}  # 1 on the current path, 2 done
    path = []

    def visit(name):
        state[name] = 1
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        state[name] = 2
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_graph_is_read():
    assert {"bounds", "lattice", "moebius", "cli"} <= set(GRAPH)
    assert "lattice" in GRAPH["bounds"] and "bounds" in GRAPH["moebius"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_package_imports_have_no_cycle():
    cycle = find_cycle(GRAPH)
    assert cycle is None, " -> ".join(cycle)
