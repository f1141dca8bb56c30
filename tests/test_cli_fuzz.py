"""Property test of the finite-set commands over documents and options.

Documents hold entries up to 1e150 in magnitude, the document bound, and a
few just above it. Whatever the document and the options, ``main`` returns a
documented exit code without raising, and an exit-0 report is strict JSON:
no NaN or Infinity.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from latnorm.cli import main

BOUND = 1e150
ABOVE = st.sampled_from([1.0000000000000002e150, -1e151, 1e200, -1e308])
REAL = st.floats(-BOUND, BOUND) | st.sampled_from([BOUND, -BOUND, 0.0])
ENTRY = REAL | st.lists(REAL, min_size=2, max_size=2)
POSITIVE = st.floats(1e-12, 1e12)


@st.composite
def documents(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))

    def finite_set(max_size):
        element = st.tuples(*[st.lists(ENTRY, min_size=d, max_size=d) for d in dims]).map(list)
        return st.lists(element, min_size=1, max_size=max_size)

    sets = {"M": draw(finite_set(6)), "F": draw(finite_set(3))}
    # hypothesis favours the ends of a range, so a middle value puts one
    # entry above the bound in a few documents
    if draw(st.integers(0, 9)) == 5:
        fiber = draw(st.sampled_from([f for e in sets["M"] + sets["F"] for f in e]))
        fiber[draw(st.integers(0, len(fiber) - 1))] = draw(ABOVE)
    return {"space": {"points": [f"w{i}" for i in range(len(dims))], "dims": dims}, "sets": sets}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["tob", "cyclic", "zonotope"]))
    argv = [command]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--eps", repr(draw(POSITIVE))]
    if command == "zonotope":
        argv += ["--max-iter", str(draw(st.integers(1, 200)))]
    elif draw(st.booleans()):
        argv += ["--tol", repr(draw(st.floats(0.0, 1e3)))]
    if command == "cyclic" and draw(st.booleans()):
        argv += ["--radius", repr(draw(POSITIVE))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(doc=documents(), argv=invocations())
def test_documented_exit_and_strict_json(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path] + argv[1:])
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
