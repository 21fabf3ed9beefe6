"""The loop version of ``eigensolve.verify_nesting``, kept as the reference
that the binary-search version must reproduce report for report."""


def verify_nesting(lower, upper, tol: float = 1e-9) -> dict:
    """Match each lower value to the nearest upper value within ``tol``
    (relative, floored at 1), the first one among equally near ones, by
    comparing it with every upper value."""
    unmatched, surplus = [], []
    mult_ok = True
    max_dev = 0.0
    used = [False] * len(upper.entries)
    for le in lower.entries:
        best, best_dev = None, None
        for j, ue in enumerate(upper.entries):
            dev = abs(ue.value - le.value)
            if dev <= tol * max(1.0, abs(le.value)) and (best_dev is None or dev < best_dev):
                best, best_dev = j, dev
        if best is None:
            unmatched.append(le.value)
        else:
            used[best] = True
            max_dev = max(max_dev, best_dev / max(1.0, abs(le.value)))
            if upper.entries[best].multiplicity < le.multiplicity:
                mult_ok = False
    for j, ue in enumerate(upper.entries):
        if not used[j]:
            surplus.append(ue.value)
    return {"unmatched_lower": unmatched, "surplus": surplus, "multiplicity_ok": mult_ok,
            "max_deviation": max_dev, "pass": not unmatched and mult_ok}
