"""The percentile rule, span self-time arithmetic and additivity."""

import math
import textwrap

import pytest

import benchlib
import metrics
import spans
from spans import Span, Tracer, summarize


class TestTailPercentile:
    def test_p99_used_when_ten_samples_lie_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        value, q = benchlib.tail_percentile(samples, 0.99)
        assert q == 0.99
        assert value == 990
        assert sum(s > value for s in samples) == 10

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 101))
        value, q = benchlib.tail_percentile(samples, 0.99)
        assert q == pytest.approx(0.90)
        assert sum(s > value for s in samples) == 10

    def test_never_fewer_than_ten_beyond(self):
        for n in (11, 57, 333, 999, 1000, 4321):
            samples = [float(i) for i in range(n)]
            value, q = benchlib.tail_percentile(samples[::-1], 0.99)
            assert sum(s > value for s in samples) >= 10
            assert q <= 0.99

    def test_small_samples_report_the_maximum(self):
        assert benchlib.tail_percentile([3.0, 1.0, 2.0], 0.99) == (3.0, 1.0)
        assert benchlib.tail_percentile([5.0] * 10, 0.99) == (5.0, 1.0)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            benchlib.tail_percentile([], 0.5)


def _span(sid, name, start, end, parent=None, label=None):
    return Span(sid, name, start, end, parent, label)


class TestSelfTime:
    def test_nested_spans_add_up_to_the_root(self):
        spans_ = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 6.0, parent=0),
            _span(2, "b", 2.0, 3.0, parent=1),
            _span(3, "b", 4.0, 5.5, parent=1),
            _span(4, "c", 7.0, 9.0, parent=0),
        ]
        s = summarize(spans_)
        assert s.wall == 10.0
        assert s.self_s == pytest.approx({"a": 2.5, "b": 2.5, "c": 2.0})
        assert s.calls == {"a": 1, "b": 2, "c": 1}
        assert s.unaccounted == pytest.approx(3.0)
        assert sum(s.self_s.values()) + s.unaccounted == pytest.approx(s.wall)

    def test_overlapping_children_cover_their_union_once(self):
        spans_ = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "x", 1.0, 5.0, parent=0),
            _span(2, "y", 3.0, 8.0, parent=0),
            _span(3, "z", 9.5, 12.0, parent=0),  # clipped at the root's end
        ]
        assert summarize(spans_).unaccounted == pytest.approx(10.0 - 7.0 - 0.5)

    def test_one_root_per_thread(self):
        spans_ = [
            _span(0, "root", 0.0, 4.0),
            _span(1, "root", 0.5, 5.0),
            _span(2, "call", 1.0, 3.0, parent=0),
            _span(3, "call", 1.0, 4.0, parent=1),
        ]
        s = summarize(spans_)
        assert s.wall == pytest.approx(8.5)
        assert s.self_s["call"] == pytest.approx(5.0)
        assert s.unaccounted == pytest.approx(3.5)

    def test_labels_keep_inclusive_time(self):
        spans_ = [
            _span(0, "root", 0.0, 4.0),
            _span(1, "flows.evaluate", 0.0, 3.0, parent=0, label="dk14"),
            _span(2, "inner", 1.0, 2.0, parent=1),
        ]
        s = summarize(spans_)
        assert s.inclusive_by_label[("flows.evaluate", "dk14")] == 3.0
        assert s.self_s["flows.evaluate"] == 2.0

    def test_tracer_records_parents_and_payloads(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x * 2, keep=lambda r: r + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) + 1,
                            label=lambda x: f"x={x}")
        root = tracer.begin("root")
        assert outer(3) == 7
        tracer.end(root)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].sid
        assert by_name["outer"].parent == by_name["root"].sid
        assert by_name["inner"].payload == 7
        assert by_name["outer"].label == "x=3"
        s = summarize(tracer.spans)
        assert sum(s.self_s.values()) + s.unaccounted == s.wall

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        assert [s.name for s in tracer.spans] == ["boom"]
        assert tracer.begin("next").parent is None


class TestInstall:
    def test_by_name_imports_are_wrapped_too(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fakepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(textwrap.dedent("""
            def f(x):
                return x + 1

            class K:
                def m(self):
                    return f(1)
        """))
        (pkg / "b.py").write_text(textwrap.dedent("""
            from fakepkg.a import f

            def g():
                return f(10)

            def h():
                from fakepkg.a import f as late
                return late(20)
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        tracer = Tracer()
        missing = spans.install(tracer, functions=(
            ("x.f", "fakepkg.a", "f"),
            ("x.m", "fakepkg.a", "K.m"),
            ("x.gone", "fakepkg.a", "vanished"),
        ), package="fakepkg")
        import fakepkg.a
        import fakepkg.b

        assert missing == ["fakepkg.a.vanished"]
        assert fakepkg.b.g() == 11
        assert fakepkg.b.h() == 21
        assert fakepkg.a.K().m() == 2
        names = [s.name for s in tracer.spans]
        assert names.count("x.f") == 3
        assert names.count("x.m") == 1


class TestAdditivity:
    def test_layer_self_times_and_unaccounted_make_the_traced_wall(self):
        digest = {
            "wall": 10.0, "unaccounted": 0.5,
            "self_s": {"fsm.stimulus": 2.0, "logic.espresso": 1.5,
                       "pipeline.fingerprint": 3.0, "flows.evaluate": 0.25,
                       "service.call": 2.75},
            "calls": {"fsm.stimulus": 4, "logic.espresso": 9},
            "inclusive": {"flows.evaluate.planet": 6.0},
            "stage_s": {"simulate": 4.0},
            "cache_hits": 0,
        }
        service = {"request_s": 2.0, "stage_s": 1.25, "pipeline_runs": 3,
                   "rejections": 0, "requests": 4, "coalesced": 1}
        values = metrics.layer_metrics(digest, overhead_s=0.1, service=service)
        total = sum(values[name] for name in metrics.self_time_names())
        assert total + values["unaccounted_s"] == pytest.approx(
            values["traced_wall_s"])
        assert values["service.transport_s"] == pytest.approx(0.75)
        assert values["service.dispatch_s"] == pytest.approx(0.75)
        assert values["flows.evaluate_s.planet"] == 6.0
        assert values["pipeline.stage_s.simulate"] == 4.0
        assert values["service.coalesced_ratio"] == 0.25
        assert set(values) == {layer.name for layer in metrics.PER_LAYER}
        assert all(math.isfinite(v) for v in values.values())

    def test_every_wrapped_span_has_a_metric(self):
        for name, _module, _path in spans.LAYER_FUNCTIONS:
            assert name in metrics.SELF
