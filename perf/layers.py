"""Per-layer metrics of a traced run (``--trace 1``).

Three sources, all outside the program: the spans ``spans.Tracer`` recorded
around public calls during the traced laps, the program's own public return
values (``QueueStats``, ``Table2Row``, observation ``time:*`` columns, the
``stats`` op, reply ``timings``), and short probes of single public functions
run after the traffic.  Seconds are sums over the traced laps as read off the
clock; ``trace.traced_wall_s`` is their base and ``trace.host_slowness`` the
host's mean slowness while they ran.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import Run, median, now

from repro.compressors import make_compressor
from repro.compressors.sz3 import split_escapes
from repro.encoding import huffman
from repro.encoding.lz import lossless_compress, lossless_decompress
from repro.serve import (FeaturizationCache, ModelRegistry, decode_array,
                         encode_array)

SCHEMES = ("khan2023", "jin2022", "rahman2023")
#: Spans that are the benchmark's own scaffolding, not a layer of the program.
HARNESS = {"cycle", "collect", "task", "query"}
CALIBRATION = "perf.calibrate"


def _trace_summary(ctx: Run, traced_wall: float, untraced_ref, traced_ref) -> dict:
    """Self time per span name, plus the instrument's own cost and coverage."""
    tracer = ctx.tracer
    tracer.collect_children()
    selfs = {name: seconds for name, (_, seconds) in tracer.self_times().items()
             if name != CALIBRATION}
    total = sum(selfs.values())
    ctx.per_layer.update({
        "trace.overhead_share": median(traced_ref) / median(untraced_ref) - 1.0,
        "trace.unattributed_share":
            sum(s for name, s in selfs.items() if name in HARNESS) / total,
        "trace.traced_wall_s": traced_wall,
        "trace.spans": len(tracer.spans),
        "trace.host_slowness": ctx.meter.slowness(),
    })
    return defaultdict(float, selfs)


def _best(fn, repeats: int) -> float:
    """Fastest of ``repeats`` calls, in seconds: a probe wants the cost of the
    function, not of the host's slow moments."""
    best = float("inf")
    for _ in range(repeats):
        t0 = now()
        fn()
        best = min(best, now() - t0)
    return best


# -- the campaign path ---------------------------------------------------------------


def campaign(ctx: Run, cycles) -> None:
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    selfs = _trace_summary(ctx, sum(c.total_wall for c in traced),
                           [c.total_ref for c in untraced], [c.total_ref for c in traced])
    tracer, out = ctx.tracer, ctx.per_layer
    observations = [o for c in traced for o in c.observations]

    loads = tracer.named("dataset.load")
    out["dataset.load_s"] = selfs["dataset.load"]
    out["dataset.load_calls"] = len(loads)
    out["dataset.load_mb"] = sum(s[6]["bytes"] for s in loads) / 1e6
    distinct = len({s[6]["data_id"] for s in loads}) * len(traced)
    out["dataset.reload_share"] = 1.0 - distinct / len(loads)

    out["core.task_hash_s"] = selfs["core.task_hash"]
    out["core.make_compressor_s"] = selfs["core.make_compressor"]
    for comp in ("sz3", "zfp"):
        for op in ("compress", "decompress"):
            out[f"compressors.{comp}_{op}_s"] = selfs[f"compressors.{comp}.{op}"]
    out["compressors.compress_mb_per_s"] = (
        sum(o["size:uncompressed_size"] for o in observations) / 1e6
        / sum(o["time:compress"] for o in observations))
    out["compressors.bound_violations"] = sum(c.violations for c in cycles)

    agnostic = [(i, o["data_id"], o["compressor"], scheme)
                for i, c in enumerate(traced) for o in c.observations
                for scheme in SCHEMES if f"time:{scheme}:error_agnostic" in o]
    for bucket in ("error_dependent", "error_agnostic"):
        out[f"predict.{bucket}_s"] = sum(
            o.get(f"time:{scheme}:{bucket}", 0.0) for o in observations for scheme in SCHEMES)
    out["predict.evaluate_calls"] = len(tracer.named("predict.evaluate"))
    out["predict.error_agnostic_recompute_share"] = 1.0 - len(set(agnostic)) / len(agnostic)

    rows = [row for c in traced for row in c.rows]
    for stage in ("training", "fit", "inference"):
        out[f"mlkit.{stage}_s"] = sum(
            getattr(r, stage).mean * getattr(r, stage).n for r in rows
            if getattr(r, stage).available)
    names = {s[0]: s[3] for s in tracer.spans}
    out["bench.report_s"] = sum(s[5] - s[4] for s in tracer.named("bench.report")
                                if names.get(s[1]) == "cycle")

    checkpoint = 0.0
    for part in ("put", "verify", "pending", "read"):
        out[f"bench.checkpoint_{part}_s"] = selfs[f"bench.checkpoint.{part}"]
        checkpoint += selfs[f"bench.checkpoint.{part}"]
    stats = [c.stats for c in traced]
    workers = 2 if stats[0].engine == "process" else 1
    # The serial engine's execute time contains the benchmark's in-lap
    # calibration ticks, which collect_wall already leaves out.
    ticks = sum(s[5] - s[4] for s in tracer.named(CALIBRATION))
    execute = sum(s.execute_seconds for s in stats) - ticks
    out["bench.queue_overhead_share"] = (
        1.0 - execute / (workers * sum(c.collect_wall for c in traced)))
    out["bench.queue_wait_s"] = sum(s.queue_wait_seconds for s in stats)
    out["bench.retries"] = sum(s.retries for s in stats)
    out["bench.pool_rebuilds"] = sum(s.pool_rebuilds for s in stats)
    out["bench.affinity_hit_share"] = median(s.affinity_hit_rate for s in stats)
    # Dispatch: the share of queue.run() in which a worker was neither
    # executing a task nor the parent committing a result.
    queue_wall = sum(s[5] - s[4] for s in tracer.named("bench.queue"))
    dispatch = max(queue_wall - ticks - execute / workers
                   - sum(s.checkpoint_seconds for s in stats), 0.0)
    out["bench.wall_share"] = (checkpoint + dispatch) / out["trace.traced_wall_s"]

    _encoding_probe(ctx)
    ctx.info.update(traced_cycles=len(traced), cycles=len(cycles))


def _encoding_probe(ctx: Run) -> None:
    """``stage_times`` of sz3 and zfp on a fixed sample of up to 8 fields, at
    the campaign's tighter bound, and LZ77 on the sample's Huffman streams
    (reported although the default ``sz3:lossless`` is zlib, so that a change
    to LZ77 can be seen to move no end-to-end metric)."""
    import campaign as campaign_module

    shape = tuple(ctx.info["shape"])
    ds = campaign_module._dataset(ctx, shape, 1)
    sums: dict[str, float] = defaultdict(float)
    for index in range(0, len(ds), max(1, len(ds) // 8))[:8]:
        array = ds.load_data(index).array
        bound = 1e-6 * max(float(array.max() - array.min()), 1e-30)
        sz3, zfp = make_compressor("sz3"), make_compressor("zfp")
        sz3.set_options({"pressio:abs": bound})
        zfp.set_options({"pressio:abs": bound})
        sz3_times, zfp_times = sz3.stage_times(array), zfp.stage_times(array)
        sums["compressors.sz3_predict_quantize_s"] += sz3_times["quantize"] + sz3_times["predict"]
        sums["encoding.huffman_s"] += sz3_times["huffman"]
        sums["encoding.lossless_s"] += sz3_times["lossless"] + zfp_times["lossless"]
        sums["compressors.zfp_transform_s"] += zfp_times["fixed_point"] + zfp_times["transform"]
        sums["compressors.zfp_pack_s"] += zfp_times["pack"]
        symbols, _ = split_escapes(sz3.predict_residuals(array))
        stream = huffman.encode(
            symbols, max_length=int(sz3.get_options().get("sz3:huffman_max_length", 16)))
        t0 = now()
        packed = lossless_compress(stream, backend="lz77")
        t1 = now()
        restored = lossless_decompress(packed)
        sums["encoding.lz77_encode_s"] += t1 - t0
        sums["encoding.lz77_decode_s"] += now() - t1
        if restored != stream:
            ctx.breach("LZ77 did not round-trip a Huffman stream")
    ctx.per_layer.update(sums)


# -- the query path ------------------------------------------------------------------


def serving(ctx: Run, service, phases, delta: dict) -> None:
    traced = [p for p in phases if p.traced]
    untraced = [p for p in phases if not p.traced]
    # Overhead is on throughput: 1/qps is the time one reply takes.
    selfs = _trace_summary(ctx, sum(p.wall for p in traced),
                           [1.0 / p.qps_ref for p in untraced],
                           [1.0 / p.qps_ref for p in traced])
    tracer, out = ctx.tracer, ctx.per_layer

    requests = tracer.named("serve.request")
    served: dict[str, float] = defaultdict(float)  # query span id -> server ms
    for span in requests:
        attrs = span[6]
        served[span[1]] += sum(attrs.get(k, 0.0) for k in
                               ("queue_wait_ms", "featurize_ms", "predict_ms"))
    ok = [s[6] for s in requests if s[6].get("status") == "ok"]
    for part in ("queue_wait", "featurize", "predict"):
        out[f"serve.{part}_ms_p50"] = median(a[f"{part}_ms"] for a in ok)
    out["serve.wire_residual_ms_p50"] = median(
        (s[5] - s[4]) * 1e3 - served[s[0]] for s in tracer.named("query"))
    sized = [s[6]["bytes"] for s in requests if "bytes" in s[6]]
    out["serve.request_bytes_mean"] = sum(sized) / len(sized)
    out["serve.need_data_resends"] = sum(1 for s in requests if s[6].get("status") == "need_data")

    out["serve.mean_batch_size"] = delta["batched_rows"] / max(delta["predict_calls"], 1)
    out["serve.batches"] = delta["batches"]
    out["serve.shed"] = delta["shed"]
    out["serve.model_loads"] = delta["model_loads"]
    out["serve.worker_restarts"] = delta["worker_restarts"]
    out["serve.feat_hit_share"] = delta["feat_hit_share"]
    refs = delta["feat_ref_hits"] + delta["feat_ref_misses"]
    out["serve.feat_ref_hit_share"] = delta["feat_ref_hits"] / refs if refs else 0.0
    out["serve.fleet_start_s"] = service.fleet_start_s

    _serve_probes(ctx, service)
    ctx.info.update(traced_phases=len(traced), traced_queries=len(tracer.named("query")))


def _serve_probes(ctx: Run, service) -> None:
    out = ctx.per_layer
    registry = ModelRegistry(str(service.root))
    keys = [key for key, _ in service.models()]
    out["serve.registry_load_ms"] = median(
        _best(lambda: registry.load(key), 1) for key in keys) * 1e3

    for scheme in SCHEMES:
        key, manifest = service.models(scheme, "sz3")[0]
        model = registry.load(key)
        config = model.scheme.config_features(model.compressor)
        rows = [{**config, **row} for row in service.rows_for(manifest)]
        batch = (rows * 32)[:32]
        predict_many = model.predictor.predict_many
        out[f"predict.predict_many_row_us_b1.{scheme}"] = (
            _best(lambda: predict_many(batch[:1]), 20) * 1e6)
        out[f"predict.predict_many_row_us_b32.{scheme}"] = (
            _best(lambda: predict_many(batch), 20) / 32 * 1e6)

    field = np.random.default_rng(ctx.seed).standard_normal((32, 32, 16)).astype(np.float32)
    payload = encode_array(field)
    out["serve.encode_array_ms"] = _best(lambda: encode_array(field), 20) * 1e3
    out["serve.decode_array_ms"] = _best(lambda: decode_array(payload), 20) * 1e3

    # An in-process cache in the fleet's mode (L1 dict over an shm L2), keyed
    # as the server keys it.
    cache_dir = ctx.workdir / "probe-featcache"
    with FeaturizationCache(shared_dir=str(cache_dir)) as cache:
        model = registry.load(service.models("rahman2023", "sz3")[0][0])
        row = dict(service.rows_for(model.manifest)[0])
        puts, gets = [], []
        for i in range(50):
            key = cache.key_for_fingerprint(model, f"probe-{i}")
            t0 = now()
            cache.put(key, row, cost_s=0.0, source_nbytes=int(field.nbytes))
            t1 = now()
            hit = cache.get(key)
            gets.append(now() - t1)
            puts.append(t1 - t0)
            if hit is None or hit.row != row:
                ctx.breach("featurization cache did not return the row it was given")
        out["serve.featcache_put_us"] = median(puts) * 1e6
        out["serve.featcache_get_us"] = median(gets) * 1e6
        cache.sweep()
