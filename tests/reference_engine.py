"""A literal per-node transcription of the README's recursions: the differential oracle of `optimizers`.

Each node's matrices live in Python lists and every stage is a loop over
the nodes:

    G_i   = grad f_i(X_i) + xi_i            xi_i from default_rng((base_seed, i, k))
    M_i   = (1 - theta) M_i + theta G_i                          (tracked lanes)
    V_i   = sum_j w_ij (V_j + M_j(new) - M_j(old))               (tracked lanes)
    D_i   = msgn(V_i) | V_i / ||V_i||_F | clip(G_i, tau_k) | G_i
    X_i   = sum_j w_ij (X_j - eta_k D_j)

The polar factor is `np.linalg.svd`'s, the gradients and objectives are the
problem formulas written out, and the row diagnostics are the README's
definitions; nothing here calls the engine's kernels, so a mistake in the
engine is not shared by the oracle. `polar` can be swapped for another
kernel to check it the same way.
"""

import math

import numpy as np

from linalg_oracles import polar_oracle

TRACKED = ("demuon", "gt_nsgdm")
# The tag of the report draw's substream, `default_rng((base_seed, tag))`.
REPORT_STREAM = 0x696F7461


def noise_draw(model, m, n, node, k):
    """Node `node`'s noise of round k, from its own counter-keyed stream."""
    rng = np.random.default_rng((model.base_seed, node, k))
    if model.family == "gaussian":
        return rng.normal(0.0, model.scale, size=(m, n))
    return model.scale * rng.standard_t(model.dof, size=(m, n))


def local_gradient(problem, i, x):
    if problem.kind == "quadratic":
        a = problem.a[i]
        return a.T @ (a @ x - problem.b[i])
    return (x @ x.T - problem.c[i]) @ x


def local_value(problem, i, x):
    if problem.kind == "quadratic":
        r = problem.a[i] @ x - problem.b[i]
        return 0.5 * float(np.sum(r * r))
    g = x @ x.T - problem.c[i]
    return 0.25 * float(np.sum(g * g))


def mix(w, blocks):
    """[sum_j w_ij B_j for each node i]."""
    n = len(blocks)
    return [sum(w[i, j] * blocks[j] for j in range(n)) for i in range(n)]


def mean(blocks):
    return sum(blocks) / len(blocks)


def schedule(lane, k):
    """(eta_k, tau_k) of round k; tau_k is None where nothing is clipped."""
    p = lane.params
    if lane.algorithm == "dsgd_clip":
        return p.clip_eta / (k + 1), p.clip_tau * (k + 1) ** 0.4
    if lane.algorithm == "dsgd":
        return p.dsgd_eta, None
    return p.eta, None


def direction(algorithm, v, g, tau, polar):
    if algorithm == "demuon":
        return polar(v)
    if algorithm == "gt_nsgdm":
        norm = np.linalg.norm(v)
        return v / norm if norm > 0.0 else np.zeros_like(v)
    if algorithm == "dsgd_clip":
        norm = np.linalg.norm(g)
        return g * (tau / norm) if norm > tau else g
    return g


def reference_round(lane, problem, w, model, k, xs, ms, vs, polar=polar_oracle):
    """One round of one lane from the per-node lists X^k, M^{k-1}, V^{k-1}.

    Returns a dict: `x`, `m`, `v` (X^{k+1}, M^k, V^k; an untracked lane keeps
    its M and V), `directions`, `noise`, `exact` (the noiseless gradients
    at X^k) and `eta`.
    """
    n_nodes = len(xs)
    noise = [noise_draw(model, problem.m, problem.n, i, k) for i in range(n_nodes)]
    exact = [local_gradient(problem, i, xs[i]) for i in range(n_nodes)]
    grads = [exact[i] + noise[i] for i in range(n_nodes)]
    eta, tau = schedule(lane, k)
    if lane.algorithm in TRACKED:
        theta = lane.params.theta
        ms_new = [(1.0 - theta) * ms[i] + theta * grads[i] for i in range(n_nodes)]
        vs_new = mix(w, [vs[i] + ms_new[i] - ms[i] for i in range(n_nodes)])
    else:
        ms_new, vs_new = ms, vs
    dirs = [direction(lane.algorithm, vs_new[i], grads[i], tau, polar) for i in range(n_nodes)]
    xs_new = mix(w, [xs[i] - eta * dirs[i] for i in range(n_nodes)])
    return {"x": xs_new, "m": ms_new, "v": vs_new, "directions": dirs, "noise": noise, "exact": exact, "eta": eta}


def _svdvals(a):
    return np.linalg.svd(a, compute_uv=False)


def reference_run(lane, horizon, problem, mixing, model, polar=polar_oracle):
    """One lane run alone for `horizon` rounds from X = 0: (rows, summary).

    Each row is a dict of the metrics CSV columns but `wall_time_ms`; the
    summary holds the `RunResult` fields the rows do not.
    """
    n_nodes, w, lam = mixing.n_nodes, mixing.weights, mixing.mixing_rate
    zero = np.zeros((problem.m, problem.n))
    xs, ms, vs = [zero] * n_nodes, [zero] * n_nodes, [zero] * n_nodes
    tracked = lane.algorithm in TRACKED
    bound = math.sqrt(n_nodes) * lam * lane.params.eta / (1.0 - lam) if tracked else None
    theorem = tracked and lane.params.horizon is not None
    if theorem:
        big_k, a = lane.params.horizon, lane.params.alpha
        p_weight = big_k ** ((a * a - 3.0 * a + 2.0) / (3.0 * a - 2.0))
        q_weight = 2.0 * lane.params.eta / (1.0 - lam)
    rows = []
    moment = max_track = max_resid = 0.0
    violations, ball_exited = 0, False
    for k in range(horizon):
        out = reference_round(lane, problem, w, model, k, xs, ms, vs, polar)
        x_mean = mean(xs)
        objective = sum(local_value(problem, i, x_mean) for i in range(n_nodes)) / n_nodes
        row = {
            "iter": k,
            "consensus_error_x": _svdvals(np.vstack([x - x_mean for x in xs]))[0],
            "consensus_bound": bound,
            "avg_grad_nuclear": _svdvals(mean(out["exact"])).sum(),
            "tracking_residual": None,
            "consensus_error_v": None,
            "potential": None,
            "objective_at_mean": objective,
        }
        if tracked:
            v_mean = mean(out["v"])
            row["tracking_residual"] = np.linalg.norm(v_mean - mean(out["m"]))
            row["consensus_error_v"] = _svdvals(np.vstack([v - v_mean for v in out["v"]])).sum()
            max_track = max(max_track, row["tracking_residual"])
            if theorem:
                gap = math.sqrt(sum(np.linalg.norm(out["exact"][i] - out["m"][i]) ** 2 for i in range(n_nodes)))
                row["potential"] = objective + p_weight * gap**a + q_weight * row["consensus_error_v"]
        if row["consensus_bound"] is not None and row["consensus_error_x"] > bound + 1e-9:
            violations += 1
        applied = out["eta"] * mean(out["directions"])
        max_resid = max(max_resid, np.linalg.norm(mean(out["x"]) - (x_mean - applied)))
        moment += sum(_svdvals(xi).sum() ** model.alpha for xi in out["noise"])
        if problem.ball_radius != math.inf:
            ball_exited |= any(_svdvals(x)[0] > problem.ball_radius for x in out["x"])
        rows.append(row)
        xs, ms, vs = out["x"], out["m"], out["v"]
    iota = int(np.random.default_rng((model.base_seed, REPORT_STREAM)).integers(horizon))
    grad_norms = [row["avg_grad_nuclear"] for row in rows]
    summary = {
        "iota": iota,
        "grad_nuclear_at_iota": grad_norms[iota],
        "avg_grad_nuclear_mean": sum(grad_norms) / horizon,
        "consensus_violations": violations,
        "max_tracking_residual": max_track,
        "max_avg_iterate_residual": max_resid,
        "noise_alpha_moment": (moment / (horizon * n_nodes)) ** (1.0 / model.alpha),
        "ball_exited": ball_exited,
    }
    return rows, summary
