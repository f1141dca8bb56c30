"""The tolerance inventory: every finite-set verdict compares at
``DEFAULT_TOL``, so the only functions that take a ``tol`` are the solver's,
whose callers pass 1e-7 or 1e-6, and the pointwise comparisons of
``StoneElement``, which callers use at several tolerances. No subcommand
takes ``--tol``; the solver's is ``zonotope --solver-tol``."""

import argparse
import importlib
import inspect
import pkgutil

import latnorm
from latnorm.cli import build_parser


def _functions():
    """``module.name`` (or ``module.Class.name``) of every function that a
    module of the package defines, with the function."""
    for info in pkgutil.iter_modules(latnorm.__path__):
        module = importlib.import_module(f"latnorm.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static, class methods
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_only_the_solver_and_stone_comparisons_take_tol():
    taking = {name for name, fn in _functions() if "tol" in inspect.signature(fn).parameters}
    assert taking == {
        "fibered._solve_disc_fit",
        "fibered.zonotope_report",
        "fibered.cp_check",
        "stone.StoneElement.le",
        "stone.StoneElement.eq",
        "stone.StoneElement.support",
    }


def test_no_subcommand_takes_tol():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {
        "analyze", "tob", "zonotope", "cyclic", "counterexample", "selftest",
    }
    for name, sub in commands.choices.items():
        options = [s for a in sub._actions for s in a.option_strings]
        # argparse takes a prefix of an option, so no option may start with --tol
        assert not [s for s in options if s.startswith("--tol")], name
