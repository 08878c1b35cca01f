"""In-memory spans recorded around the benchmark's calls into herdsplit.

A span has a name ("<layer>.<call>"), a start and an end (perf_counter
seconds), the id of the span it nests in, and the id of the operation (one
check, one CLI call, one round) it belongs to. Spans stay in memory while
the workload runs and are written out once, at the end.

`NullTracer` stands in when tracing is off, so the measured code path is the
same in both runs apart from the span bookkeeping itself.
"""

import gzip
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("tracer", "name", "id", "parent", "op", "start", "end")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t.stack[-1] if t.stack else -1
        self.op = t.op_id
        t.spans.append(self)
        t.stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.tracer.stack.pop()
        return False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1

    def op(self, name):
        """Top-level span of one operation; its nested spans share its id."""
        self.op_id += 1
        return Span(self, name)

    def span(self, name):
        return Span(self, name)

    def write(self, path):
        """Tab-separated spans, one a line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{s.id}\t{s.parent}\t{s.op}\t{s.name}\t{s.start!r}\t{s.end!r}\n"
                for s in self.spans
            )

    def by_name(self):
        """{span name: (count, total seconds, total self seconds)}."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - child[s.id]
        return {name: tuple(row) for name, row in out.items()}


class _NullSpan:
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False
    _span = _NullSpan()

    def op(self, name):
        return self._span

    def span(self, name):
        return self._span
