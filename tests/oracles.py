"""Independent oracles shared by the unit and acceptance tests."""

import itertools
import math

import numpy as np

from latnorm import (
    CapExceededError,
    ConstructionError,
    FiniteSet,
    Idempotent,
    defect,
    disc_grid,
    exhaustion,
    greedy_order,
    truncate_to_ball,
)


def grid_zonotope_distance(x, F, mesh=0.01):
    """Grid the last coefficient disc, solve the first coefficient in closed
    form; exact for one generator, within mesh * |last generator| of the
    optimum for two."""
    grid = disc_grid(1.0, mesh)
    out = np.zeros(x.space.n_points)
    for w in range(x.space.n_points):
        b = x.fibers[w]
        gens = F.stacks[w]
        if len(F) == 1:
            vals = np.linalg.norm(b[None, :] - grid[:, None] * gens[0][None, :], axis=1)
        elif len(F) == 2:
            g1, g2 = gens
            resid = b[None, :] - grid[:, None] * g2[None, :]
            n1 = float(np.vdot(g1, g1).real)
            if n1 < 1e-30:
                vals = np.linalg.norm(resid, axis=1)
            else:
                lam = resid @ np.conj(g1) / n1
                lam = lam * np.minimum(1.0, 1.0 / np.maximum(np.abs(lam), 1e-300))
                vals = np.linalg.norm(resid - lam[:, None] * g1[None, :], axis=1)
        else:
            raise NotImplementedError("oracle covers one or two generators")
        out[w] = float(vals.min())
    return out


def frontier_group_closure(gens, cap=10**5):
    """Closure of the generators (``MPMap``s) under composition and
    inversion, breadth-first one frontier at a time: each element of a
    frontier, in order, is left-multiplied by every generator and then its
    inverse. Raises ``CapExceededError`` once the closure would exceed cap."""
    n = len(gens[0])
    steps = []
    for g in gens:
        inv = np.empty(n, dtype=int)
        inv[g.perm] = np.arange(n)
        steps += [g.perm, inv]
    identity = np.arange(n)
    closure = [tuple(identity.tolist())]
    seen = set(closure)
    frontier = [identity]
    while frontier:
        new_frontier = []
        for el in frontier:
            for s in steps:
                nxt = s[el]  # s after el
                key = tuple(nxt.tolist())
                if key not in seen:
                    if len(seen) + 1 > cap:
                        raise CapExceededError(f"group closure exceeds cap {cap}")
                    seen.add(key)
                    closure.append(key)
                    new_frontier.append(nxt)
        frontier = new_frontier
    return tuple(closure)


def closure_orbit_functions(f, ext, tol=1e-9):
    """Orbit of f by walking the whole group closure of the frontier oracle:
    the Koopman image ``g[t] = f`` under every element t in closure order,
    deduplicated by rounded key (the first image of each key is kept)."""
    f = np.asarray(f, dtype=complex)
    seen = {}
    for t in frontier_group_closure(ext.upstairs_gens, ext.cap):
        g = np.empty_like(f)
        g[list(t)] = f
        key = np.round(g.view(float) / max(tol, 1e-300)).astype(np.int64).tobytes()
        if key not in seen:
            seen[key] = g
    return np.array(list(seen.values()), dtype=complex)


def brute_force_greedy_order(M):
    """Farthest-point order from full pairwise distance tables: seed at the
    largest lattice norm, then repeatedly the element whose sup over points
    of the distance to the placed set is largest (lowest index on ties)."""
    n = len(M)
    if n == 0:
        return []
    # explicit differences with the textbook re**2 + im**2 sum, independent
    # of the library's distance formula
    tables = []
    for s in M.stacks:
        diff = s[:, None, :] - s[None, :, :]
        tables.append(np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=2)))
    dist = np.stack(tables, axis=2)  # (n, n, n_points)
    norms = np.stack([np.linalg.norm(s, axis=1) for s in M.stacks], axis=1)
    order = [int(np.argmax(np.max(norms, axis=1)))]
    while len(order) < n:
        scores = np.max(np.min(dist[:, order, :], axis=1), axis=1)
        scores[order] = -1.0
        order.append(int(np.argmax(scores)))
    return order


def brute_force_defect_chain(M, order):
    """Defect reports of M against every prefix of ``order``, each
    recomputed from scratch."""
    return [defect(M, M.subset(order[:n])) for n in range(1, len(order) + 1)]


def per_prefix_cyclic_witness(M, eps, r, tol=1e-9):
    """Parts of a cyclic witness whose candidate covers each come from a
    full ``defect`` of M against the greedy prefix of the truncated set."""
    truncated = truncate_to_ball(M, r, tol)
    order = greedy_order(truncated)
    order_sets = [truncated.subset(order[:n]) for n in range(1, len(order) + 1)]
    covers = [
        Idempotent(M.space.base, defect(M, F).value.values <= eps + tol)
        for F in order_sets
    ]
    total = covers[0]
    for c in covers[1:]:
        total = total | c
    if not total.is_one():
        raise ConstructionError("no candidate covers every point")
    parts = []
    for p, F in zip(exhaustion(covers), order_sets):
        glued = FiniteSet(
            F.space, [s * p.mask[w] for w, s in enumerate(F.stacks)], len(F)
        )
        parts.append((p, glued))
    return parts


def product_grid_image(F, grid):
    """Images of every tuple of grid points under F, the tuples enumerated by
    ``itertools.product`` (last coefficient fastest)."""
    combos = np.array(list(itertools.product(grid, repeat=len(F))), dtype=complex)
    return FiniteSet(F.space, [combos @ s for s in F.stacks], combos.shape[0])


def per_link_orbit_tob_verdict(chain, tol=1e-9):
    """Pointwise decrease and final zero of a chain, one ``le`` per link."""
    for u, v in zip(chain, chain[1:]):
        if not v.le(u, tol):
            return False
    return chain[-1].le(0.0, tol)


def per_link_egoroff_localize(u_seq, weights, delta, eps_values, tol=1e-9):
    """Egoroff localization with the decrease checked one ``le`` per link and
    each threshold found by scanning the chain: ``(kept mask, removed,
    removed mass, thresholds)``."""
    for u, v in zip(u_seq, u_seq[1:]):
        if not v.le(u, tol):
            raise ValueError("chain is not pointwise decreasing")
    U = np.array([u.values for u in u_seq])
    removed, removed_mass = [], 0.0
    for idx in np.lexsort(tuple(U))[::-1]:
        idx = int(idx)
        if np.all(U[:, idx] <= tol):
            continue
        if removed_mass + weights[idx] <= delta + 1e-15:
            removed.append(idx)
            removed_mass += float(weights[idx])
    kept = np.ones(U.shape[1], dtype=bool)
    kept[removed] = False
    thresholds = {}
    for eps in eps_values:
        thresholds[eps] = None
        for n, u in enumerate(u_seq, start=1):
            if np.all(u.values[kept] <= eps + tol):
                thresholds[eps] = n
                break
    return kept, sorted(removed), removed_mass, thresholds


def per_scalar_sets(sets_doc, dims):
    """The named sets of a finite-set document on fibers of the given dims,
    converted one scalar at a time: ``(stacks per set name, diagnostics)``,
    a diagnostic for each malformed set, element, fiber or entry, in document
    order. An entry is a number or an [re, im] pair of numbers (bools count
    as numbers) whose value is finite."""
    diags, out = [], {}
    for name, elements in sets_doc.items():
        path = f"$.sets.{name}"
        if not isinstance(elements, list):
            diags.append(f"{path}: expected a list of elements")
            continue
        stacks = [np.zeros((len(elements), d), dtype=complex) for d in dims]
        for i, elem in enumerate(elements):
            if not isinstance(elem, list) or len(elem) != len(dims):
                diags.append(
                    f"{path}[{i}]: expected one fiber per point ({len(dims)} fibers)"
                )
                continue
            for w, fib in enumerate(elem):
                if not isinstance(fib, list) or len(fib) != dims[w]:
                    diags.append(f"{path}[{i}][{w}]: expected {dims[w]} entries")
                    continue
                for k, v in enumerate(fib):
                    where = f"{path}[{i}][{w}][{k}]"
                    number = isinstance(v, (int, float))
                    pair = (
                        isinstance(v, list)
                        and len(v) == 2
                        and all(isinstance(c, (int, float)) for c in v)
                    )
                    if not (number or pair):
                        diags.append(f"{where}: expected a number or [re, im] pair")
                        continue
                    try:
                        z = complex(v) if number else complex(v[0], v[1])
                    except OverflowError:
                        z = None
                    if z is None or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                        diags.append(f"{where}: expected finite numbers")
                        continue
                    stacks[w][i, k] = z
        out[name] = stacks
    return out, diags
