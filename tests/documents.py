"""Writers of the two CLI input documents, for tests that need a document
on disk: the inverses of ``latnorm.serialize``'s parsers."""

from latnorm.fibered import FiniteSet
from latnorm.systems import Extension


def finite_set_to_json(F: FiniteSet) -> dict:
    return {
        "space": {
            "points": list(F.space.base.labels),
            "dims": list(F.space.dims),
        },
        "elements": [
            [
                [[float(v.real), float(v.imag)] for v in F.stacks[w][i]]
                for w in range(F.space.n_points)
            ]
            for i in range(len(F))
        ],
    }


def extension_to_json(ext: Extension) -> dict:
    return {
        "space": {
            "points": list(ext.upstairs.labels),
            "weights": [float(w) for w in ext.upstairs.weights],
        },
        "generators": [g.perm.tolist() for g in ext.upstairs_gens],
        "factor": {
            "base_space": {
                "points": list(ext.downstairs.labels),
                "weights": [float(w) for w in ext.downstairs.weights],
            },
            "map": ext.factor.tolist(),
            "base_generators": [g.perm.tolist() for g in ext.downstairs_gens],
        },
    }
