"""Statistics of the soslock benchmark: summaries of timing samples, the
failure share, the sweep verdict-map comparison and the trace analysis
(self time, coverage, flat per-layer table). Pure functions, no I/O."""

import statistics


def median(values):
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) with the method the acceptance check uses:
    statistics.quantiles(values, n=4). Needs at least two values."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of a sample with median 0")
    return (q3 - q1) / q2


def tail(values, beyond=10):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample_count), or None when the sample is
    too small for any such percentile (fewer than beyond + 1 samples). The
    value is the (n - beyond)-th smallest sample, so exactly `beyond`
    samples lie beyond it; its percentile is 100 * (n - beyond) / n."""
    n = len(values)
    if n < beyond + 1:
        return None
    ordered = sorted(values)
    k = n - beyond
    return ordered[k - 1], 100.0 * k / n, n


def failure_share(attempted, failed):
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def compare_verdicts(observed, reference):
    """Point-by-point comparison of two sweep verdict maps: strings with one
    character per grid point in grid order ('1' certified, '0' not, '?'
    skipped). Returns the mismatches as (index, observed, expected); a
    skipped point always mismatches. Maps of different length are an
    error, not a mismatch list."""
    if len(observed) != len(reference):
        raise ValueError(
            f"verdict maps differ in length: {len(observed)} vs {len(reference)}")
    return [(i, o, r) for i, (o, r) in enumerate(zip(observed, reference))
            if o != r or o == "?"]


def _union_length(intervals, lo=None, hi=None):
    """Total length of the union of (start, end) intervals, clipped to
    [lo, hi] when given."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _spans(events):
    """Trace events as dicts with id, parent, op, name, start, end (s)."""
    out = []
    for e in events:
        args = e.get("args", {})
        start = e["ts"] * 1e-6
        out.append({"id": args.get("id"), "parent": args.get("parent"),
                    "op": args.get("op"), "name": e["name"], "start": start,
                    "end": start + e["dur"] * 1e-6})
    return out


def self_times(events):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. Returns {span id: seconds}."""
    spans = _spans(events)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _union_length(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def coverage(events, root_prefix="op."):
    """Share of the operations' wall time inside named spans: for every root
    span whose name starts with `root_prefix`, the union of the intervals of
    the other spans of that operation (any thread), clipped to the root,
    summed over roots and divided by the summed root durations. None when
    the trace holds no root span."""
    spans = _spans(events)
    roots = [s for s in spans if s["name"].startswith(root_prefix)]
    if not roots:
        return None
    covered = total = 0.0
    for root in roots:
        inside = [(s["start"], s["end"]) for s in spans
                  if s["op"] == root["id"] and s["id"] != root["id"]]
        covered += _union_length(inside, root["start"], root["end"])
        total += root["end"] - root["start"]
    return covered / total if total > 0 else None


def layer_table(events):
    """Flat per-span-name table: rows of (layer, name, count, total_s,
    self_s), where the layer is the name's first dotted component. Sorted
    by self time, largest first."""
    spans = _spans(events)
    own = self_times(events)
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [s["name"].split(".")[0], s["name"], 0, 0.0, 0.0])
        row[2] += 1
        row[3] += s["end"] - s["start"]
        row[4] += own[s["id"]]
    return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[4])
