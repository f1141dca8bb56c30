"""Property tests of the commands over documents and options.

Finite-set documents hold entries up to 1e150 in magnitude, the document
bound, and a few just above it. Extension documents have at most 6
upstairs points: skew products over a base permutation, relabelled, with
some weights, permutations or factor-map entries redrawn at random.
Whatever the document and the options, ``main`` returns a documented exit
code without raising, and an exit-0 report is strict JSON (no NaN or
Infinity) that holds its command's declared keys.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from latnorm.cli import main
from report_keys import check_keys

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


@st.composite
def extension_documents(draw):
    q = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6 // q))
    n = q * k
    # a skew product over the base: (y, i) -> (s(y), p_y(i)), relabelled
    base_gens = draw(st.lists(st.permutations(range(q)), min_size=1, max_size=2))
    gens = [
        [s[x // k] * k + p[x // k][x % k] for x in range(n)]
        for s in base_gens
        for p in [draw(st.lists(st.permutations(range(k)), min_size=q, max_size=q))]
    ]
    label = draw(st.permutations(range(n)))  # point x is written as label[x]
    inverse = sorted(range(n), key=label.__getitem__)
    gens = [[label[g[x]] for x in inverse] for g in gens]
    fmap = [x // k for x in inverse]
    weights = [1.0 / n] * n
    base_weights = [1.0 / q] * q
    # redraw a part at random: most such documents are rejected with exit 2
    part = draw(st.sampled_from(["none"] * 3 + ["weights", "generator", "map"]))
    if part == "weights":
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        weights = [w / sum(raw) for w in raw]
        base_weights = [sum(w for w, y in zip(weights, fmap) if y == b) for b in range(q)]
    elif part == "generator":
        gens[draw(st.integers(0, len(gens) - 1))] = draw(
            st.permutations(range(n)) | st.lists(st.integers(-1, n), min_size=n, max_size=n)
        )
    elif part == "map":
        fmap[draw(st.integers(0, n - 1))] = draw(st.integers(-1, q))
    return {
        "space": {"points": [f"x{i}" for i in range(n)], "weights": weights},
        "generators": gens,
        "factor": {
            "base_space": {"points": [f"y{i}" for i in range(q)], "weights": base_weights},
            "map": fmap,
            "base_generators": base_gens,
        },
    }


@st.composite
def analyze_invocations(draw):
    argv = ["analyze"]
    for flag in ("--eps", "--delta"):
        for _ in range(draw(st.integers(0, 2))):
            argv += [flag, repr(draw(st.floats(1e-6, 2.0)))]
    if draw(st.booleans()):
        argv += ["--cap", str(draw(st.integers(1, 4)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(doc, argv):
    """Run the command on the document, check its exit code and an exit-0
    report, and return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path] + argv[1:])
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue())
    if code == 0:
        check_keys(json.loads(out.getvalue(), parse_constant=_reject_constant))
    return code


@settings(max_examples=150, deadline=None)
@given(doc=documents(), argv=invocations())
def test_documented_exit_and_strict_json(doc, argv):
    _run(doc, argv)


@settings(max_examples=100, deadline=None)
@given(doc=extension_documents(), argv=analyze_invocations())
def test_analyze_documented_exit_and_strict_json(doc, argv):
    # analyze reports its verdicts and runs no solver: never exit 1 or 4
    assert _run(doc, argv) in (0, 2, 3)
