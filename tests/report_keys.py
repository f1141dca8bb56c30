"""The declared key set of every JSON report the CLI writes.

A spec is ``None`` (a leaf: any value), a dict (an object holding exactly
the declared keys; a key ending in ``?`` may be absent), ``{NUMBER: spec}``
(an object keyed by numbers written as strings, such as the ``--eps``
values, each value matching ``spec``) or ``[spec]`` (a list whose items
match ``spec``). ``check_keys(report)`` asserts that an exit-0 report holds
only the declared keys of its command, and all the required ones.
"""

NUMBER = "<number>"

DEFECT = {"points": None, "value": None, "witness_size": None, "argmin": None}

_ENVELOPE = {"tool": None, "version": None, "command": None}


def _config(*keys):
    return {**dict.fromkeys(keys), "format": None, "out?": None}


REPORTS = {
    "analyze": {
        **_ENVELOPE,
        "config": _config("input", "eps", "delta", "cap", "tol"),
        "validation": {"valid": None, "violations": None},
        "cond_expectation": None,
        "ap_verdicts": None,
        "kronecker_dim": None,
        "discrete_spectrum": None,
        "cross_check": {
            "n_points": None,
            "kronecker_dim": None,
            "ap_dim": None,
            "tob_dim": None,
            "subspace_distances": {"fm_ap": None, "fm_tob": None, "ap_tob": None},
            "inclusion_residuals": {"fm_in_ap": None, "ap_in_tob": None},
            "ap_verdicts": None,
            "ap_witness_sizes": None,
            "egoroff_thresholds": {NUMBER: None},
            "corollary": {
                "discrete_spectrum": None,
                "ap_dense": None,
                "tob_dense": None,
                "egoroff_localizable": None,
            },
            "weakly_mixing_dim": None,
            "note": None,
        },
    },
    "tob": {
        **_ENVELOPE,
        "config": _config("input", "eps", "tol"),
        "defect?": DEFECT,
        "utob": {
            NUMBER: {"verdict": None, "epsilon": None, "witness_size": None, "defect": DEFECT}
        },
    },
    "zonotope": {
        **_ENVELOPE,
        "config": _config("input", "eps", "solver_tol", "max_iter"),
        "distances": None,
        "cp_verdicts": {NUMBER: None},
        "solver": {
            "iterations": None,
            "tol": None,
            "max_iter": None,
            "stopped": None,
            "problems": None,
        },
    },
    "cyclic": {
        **_ENVELOPE,
        "config": _config("input", "eps", "radius?", "tol"),
        "radius": None,
        "results": {
            NUMBER: {
                "verified": None,
                "witness": {
                    "epsilon": None,
                    "parts": [{"mask": None, "set_size": None, "set": None}],
                },
            }
        },
    },
    "counterexample": {
        **_ENVELOPE,
        "config": _config("n", "delta?", "tol"),
        "n": None,
        "set_size": None,
        "defect_table": None,
        "coordinates": None,
        "egoroff?": {
            NUMBER: {
                "m": None,
                "kept": None,
                "removed_mass": None,
                "witness_size": None,
                "max_defect_on_kept": None,
            }
        },
    },
}


def check_keys(report: dict) -> None:
    _check(report, REPORTS[report["command"]], "$")


def _check(node, spec, path):
    if spec is None:
        return
    if isinstance(spec, list):
        assert isinstance(node, list), f"{path}: expected a list"
        for i, item in enumerate(node):
            _check(item, spec[0], f"{path}[{i}]")
        return
    assert isinstance(node, dict), f"{path}: expected an object"
    if NUMBER in spec:
        for key, value in node.items():
            float(key)  # a number written as a string
            _check(value, spec[NUMBER], f"{path}.{key}")
        return
    keys = {k.rstrip("?"): k for k in spec}
    assert set(node) <= set(keys), f"{path}: undeclared keys {set(node) - set(keys)}"
    required = {k for k, decl in keys.items() if not decl.endswith("?")}
    assert required <= set(node), f"{path}: missing keys {required - set(node)}"
    for key, value in node.items():
        _check(value, spec[keys[key]], f"{path}.{key}")
