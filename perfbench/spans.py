"""In-memory spans around the benchmark's calls into defectkit.

A span carries a name, start and end (``time.perf_counter`` seconds), the
index of its parent span (-1 for an operation's root) and the operation id.
Spans stay in memory and are written out once, when the run ends. Self time
is a span's duration minus the part of it that its child spans cover.
"""
import json
import time


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass

    def end_op(self, error=None):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, error]
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id
        self._stack = [self._open("bench.op", -1)]

    def end_op(self, error=None):
        self._close(self._stack.pop(), error)
        self._op = None

    def _open(self, name, parent):
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        return len(self.spans) - 1

    def _close(self, idx, error):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = error

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name, self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as err:
            error = type(err).__name__
            raise
        finally:
            self._stack.pop()
            self._close(idx, error)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span[1]
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[2] - span[1] - covered)
    return out


def summarize(spans):
    """Per span name: call count, total, self time, durations and errors."""
    selfs = self_times(spans)
    table = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "durations": [], "errors": {}})
        dur = span[2] - span[1]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += own
        row["durations"].append(dur)
        if span[5]:
            row["errors"][span[5]] = row["errors"].get(span[5], 0) + 1
    return table
