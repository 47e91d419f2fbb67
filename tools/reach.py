"""List the functions of ``src/wismc`` that no subcommand enters.

Usage: python tools/reach.py OUTDIR

OUTDIR must be empty or absent. The script writes the inputs of
``tools/output_digests.py`` into it and runs that tool's commands on each,
then ``estimate``, a short ``simulate`` and a short exact ``fpt`` with every
copula family on the fixture. Only the CLI runs are traced, with
``sys.setprofile`` (the standard library alone; no coverage tool is needed).
It prints one line per module-level function, method or property defined in
``src/wismc`` that none of those runs entered, in source order, in the form
``wismc.core:IndexedKernel.ladder  412`` (module, qualified name, first
line), and the count to stderr.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import output_digests  # noqa: E402  (puts src/ and perfbench/ on the path)


def family_commands(d: Path, families) -> list:
    """Fit the bars in ``d`` once per copula family, and simulate and run the
    exact first-passage recursion from each fit."""
    out = []
    for family in families:
        model = str(d / f"copula_{family}" / "model.json")
        out += [["estimate", "--input", str(d / "bars.csv"), "--copula", family,
                 "--out", model],
                ["simulate", "--model", model, "--minutes", "2000",
                 "--out", str(d / f"copula_{family}" / "sim")],
                ["fpt", "--model", model, *output_digests.FPT_BARRIERS, "--horizon", "2",
                 "--method", "recursion", "--out", str(d / f"copula_{family}" / "fpt")]]
    return out


def defined_code(package) -> set:
    """The code object of every function defined in the package's modules:
    module-level functions and the methods and properties of its classes."""
    found = set()

    def add_function(obj, module):
        obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
        if isinstance(obj, property):
            for part in (obj.fget, obj.fset, obj.fdel):
                if part is not None:
                    add_function(part, module)
        elif inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            found.add(obj.__code__)

    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    add_function(attr, module)
            else:
                add_function(obj, module)
    return found


def main(argv) -> int:
    out = output_digests.out_dir(argv, __doc__)
    if out is None:
        return 2
    import wismc
    from wismc.cli import main as wismc_main
    from wismc.copulas import FAMILIES

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def traced_main(argv_):
        sys.setprofile(hook)
        try:
            return wismc_main(argv_)
        finally:
            sys.setprofile(None)

    for name, write in output_digests.inputs().items():
        output_digests.prepare(out / name, write)
        if not output_digests.run(output_digests.commands(out / name), traced_main):
            return 1
    if not output_digests.run(family_commands(out / "fixture", FAMILIES), traced_main):
        return 1
    root = Path(wismc.__file__).parent
    missed = [code for code in defined_code(wismc) if code not in entered]
    missed.sort(key=lambda code: (code.co_filename, code.co_firstlineno))
    for code in missed:
        module = f"wismc.{Path(code.co_filename).relative_to(root).stem}"
        print(f"{module}:{code.co_qualname}  {code.co_firstlineno}")
    sys.stderr.write(f"{len(missed)} functions never entered\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
