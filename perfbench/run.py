#!/usr/bin/env python3
"""End-to-end training benchmark for the SketchML reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kdd12-sketchml-t4 --seed 1 \
        --seconds 30 --trace 0

It builds perfbench/ (and the repository's libraries under src/) into
.bench_build/, then launches perfbench_trial processes back to back for
--seconds seconds. Each trial synthesizes the workload's dataset from
--seed, builds a dist::DistributedTrainer and trains it. With --trace 0 the
last stdout line reports the end-to-end metrics, with --trace 1 the
per-layer metrics, as medians over the trials, with every time scaled to
a reference host speed (CALIBRATION_REF_S) measured by a
perfbench_calibrate process before each trial. Every trial's raw record is
kept in .bench_build/perfbench-trace/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
from statistics import median
import subprocess
import sys
import time

WORKLOADS = ("kdd12-sketchml-t4", "kdd12-raw-t4", "ctr-sharded-churn-t1")
BUILD_DIR = os.path.join(".bench_build", "cmake")
TRACE_DIR = os.path.join(".bench_build", "perfbench-trace")
TRIAL_BIN = os.path.join(BUILD_DIR, "perfbench_trial")
CALIBRATE_BIN = os.path.join(BUILD_DIR, "perfbench_calibrate")
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 150
RUN_DEADLINE_S = 170  # Stop launching trials past this, whatever --seconds.
# The calibration work's duration at reference host speed. A
# perfbench_calibrate process times the work right before each trial; every
# time the trial reports is multiplied by CALIBRATION_REF_S / that time, so
# the host's speed drifting between runs does not read as a change in the
# program. See README.md.
CALIBRATION_REF_S = 0.03


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # Keep git from searching above the checkout for a repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    return env


def build():
    """Configures once and builds incrementally; returns False on failure."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("error: src/CMakeLists.txt not found; run from the root of a "
            "full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench_trial", "perfbench_calibrate"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=child_env())
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace"))
            log("error: build step failed: " + " ".join(step))
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=child_env())
    except OSError:
        return "unknown"
    sha = done.stdout.decode().strip()
    return sha if done.returncode == 0 and sha else "unknown"


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def calibrate():
    """Times the calibration work in its own process; seconds or None."""
    try:
        done = subprocess.run([CALIBRATE_BIN], stdout=subprocess.PIPE,
                              timeout=30, check=True, env=child_env())
        seconds = float(done.stdout.decode())
    except (subprocess.SubprocessError, ValueError):
        seconds = 0.0
    if not seconds > 0:
        log("error: calibration failed")
        return None
    return seconds


def run_trial(args, mode):
    """Runs one calibration and one trial process; returns the trial's
    record with the calibration time added, or None if either failed."""
    calibration_s = calibrate()
    if calibration_s is None:
        return None
    cmd = [TRIAL_BIN, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--mode=" + mode,
           "--scale=%r" % args.scale]
    # CLOCK_MONOTONIC is system-wide, so the trial measures setup from
    # this instant: process launch included.
    cmd.append("--t0-ns=%d" % time.monotonic_ns())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              timeout=TRIAL_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        log("error: trial timed out")
        return None
    if done.returncode != 0:
        log(done.stderr.decode(errors="replace"))
        log("error: trial exited with %d" % done.returncode)
        return None
    lines = done.stdout.decode().strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("error: trial printed no record")
        return None
    record["calibration_s"] = calibration_s
    return record


def speed(t):
    """Factor that turns a trial's wall seconds into reference seconds."""
    return CALIBRATION_REF_S / t["calibration_s"]


def end_to_end(trials):
    """The user-visible metrics of untraced trials."""
    def per_trial(fn):
        return median([fn(t) for t in trials])

    return {
        "setup_s": (per_trial(lambda t: t["setup_s"] * speed(t)), "s"),
        "run_s": (per_trial(lambda t: t["run_s"] * speed(t)), "s"),
        "train_samples_per_s": (per_trial(
            lambda t: t["train_rows"] * t["epochs"] /
            (sum(t["epoch_s"]) * speed(t))), "samples/s"),
        "peak_rss_mb": (per_trial(lambda t: t["peak_rss_mb"]), "MiB"),
        "up_bytes_per_epoch": (per_trial(
            lambda t: sum(t["bytes_up"]) / t["epochs"]), "B"),
        "final_test_loss": (per_trial(lambda t: t["test_loss"][-1]), "loss"),
        "delivered_share": (per_trial(
            lambda t: 1.0 - sum(t["lost"]) / sum(t["messages"])), "ratio"),
    }


def per_layer(trials):
    """The per-module metrics of traced trials."""
    def per_trial(fn):
        return median([fn(t) for t in trials])

    def epoch_mean(key):
        return lambda t: sum(t[key]) / t["epochs"]

    def epoch_mean_s(key):
        return lambda t: sum(t[key]) / t["epochs"] * speed(t)

    def replay_other(t):
        layers = (t["replay_gradient_s"] + t["replay_codec_encode_s"] +
                  t["replay_codec_decode_s"] + t["replay_optimizer_apply_s"] +
                  t["replay_loss_eval_s"] + t["replay_frame_s"])
        return (median(t["epoch_s_t1"]) - layers) * speed(t)

    def replay(key):
        return lambda t: t["replay_" + key] * speed(t)

    return {
        "common.pool.task_overhead_us": (
            per_trial(lambda t: t["pool_task_overhead_us"] * speed(t)), "us"),
        "common.pool.epoch_speedup_t2": (per_trial(
            lambda t: median(t["epoch_s_t1"]) / median(t["epoch_s_t2"])),
            "ratio"),
        "common.pool.epoch_speedup_t4": (per_trial(
            lambda t: median(t["epoch_s_t1"]) / median(t["epoch_s_t4"])),
            "ratio"),
        "common.framing.frame_s": (per_trial(replay("frame_s")), "s"),
        "ml.synthesize_s": (
            per_trial(lambda t: t["synthesize_s"] * speed(t)), "s"),
        "ml.gradient_s": (per_trial(replay("gradient_s")), "s"),
        "ml.loss_eval_s": (per_trial(replay("loss_eval_s")), "s"),
        "ml.optimizer_apply_s": (per_trial(replay("optimizer_apply_s")), "s"),
        "sketch.kll_build_s": (per_trial(replay("kll_build_s")), "s"),
        "sketch.minmax_insert_s": (per_trial(replay("minmax_insert_s")), "s"),
        "sketch.minmax_query_s": (per_trial(replay("minmax_query_s")), "s"),
        "compress.bucket_search_s": (
            per_trial(replay("bucket_search_s")), "s"),
        "compress.delta_key_encode_s": (
            per_trial(replay("delta_key_encode_s")), "s"),
        "compress.delta_key_decode_s": (
            per_trial(replay("delta_key_decode_s")), "s"),
        "core.encode_s": (per_trial(epoch_mean_s("encode_s")), "s"),
        "core.decode_s": (per_trial(epoch_mean_s("decode_s")), "s"),
        "core.encode_calls": (per_trial(epoch_mean("encode_calls")), "count"),
        "core.bytes_in": (per_trial(epoch_mean("bytes_in")), "B"),
        "core.bytes_out": (per_trial(epoch_mean("bytes_out")), "B"),
        "core.compression_ratio": (per_trial(
            lambda t: sum(t["bytes_in"]) / sum(t["bytes_out"])), "ratio"),
        "dist.run_epoch_s": (
            per_trial(lambda t: median(t["epoch_s"]) * speed(t)), "s"),
        "dist.codec_share": (per_trial(
            lambda t: (sum(t["encode_s"]) + sum(t["decode_s"])) /
            (t["threads"] * sum(t["epoch_s"]))), "ratio"),
        "dist.replay_other_s": (per_trial(replay_other), "s"),
        "dist.checkpoint_save_s": (
            per_trial(lambda t: t["checkpoint_save_s"] * speed(t)), "s"),
        "dist.checkpoint_bytes": (
            per_trial(lambda t: t["checkpoint_bytes"]), "B"),
        "dist.retries": (per_trial(lambda t: sum(t["retries"])), "count"),
        "dist.lost_messages": (per_trial(lambda t: sum(t["lost"])), "count"),
        "dist.rollbacks": (per_trial(lambda t: sum(t["rollbacks"])), "count"),
        "trace.overhead_ratio": (per_trial(
            lambda t: median(t["epoch_s"]) / median(t["plain_epoch_s"])),
            "ratio"),
    }


DETERMINISTIC = ("bytes_up", "messages", "lost", "retries", "rollbacks",
                 "train_loss", "test_loss")


def check_trials(trials):
    """Cross-trial checks; returns a list of failure messages."""
    failures = []
    for t in trials:
        failures.extend(t["failures"])
    first = trials[0]
    for t in trials[1:]:
        for key in DETERMINISTIC:
            if t[key] != first[key]:
                failures.append("trials of one seed disagree on " + key)
    return failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size factor; the self-test uses a "
                        "tiny one (default 1)")
    parser.add_argument("--out", help="also write the stamped result here")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 1 or not args.seconds > 0:
        log("error: --seed must be >= 1, --seconds > 0")
        return 2
    if not build():
        return 1

    mode = "traced" if args.trace else "untraced"
    started = time.monotonic()
    trials, attempted, failed = [], 0, 0
    while True:
        elapsed = time.monotonic() - started
        per_trial = elapsed / attempted if attempted else 0.0
        # Launch another trial only if it should end within --seconds
        # (after the first MIN_TRIALS) and within the hard deadline.
        if elapsed + per_trial > RUN_DEADLINE_S:
            break
        if attempted >= MIN_TRIALS and elapsed + per_trial > args.seconds:
            break
        attempted += 1
        record = run_trial(args, mode)
        if record is None:
            failed += 1
        else:
            trials.append(record)
    if not trials:
        log("error: every trial failed")
        return 1

    failures = check_trials(trials)
    metrics = per_layer(trials) if args.trace else end_to_end(trials)
    first = trials[0]
    stamp = {
        "nproc": os.cpu_count(),
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "simd": first["simd"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(
        TRACE_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                               args.trace))
    with open(trace_path, "w") as f:
        json.dump({"stamp": stamp, "trials": trials}, f)

    for t in trials:
        if args.trace:
            print("wall epoch_s t1=%s t2=%s t4=%s traced=%s speed=%.3f" % (
                tuple([round(x, 4) for x in t[k]] for k in
                      ("epoch_s_t1", "epoch_s_t2", "epoch_s_t4", "epoch_s")) +
                (speed(t),)))
        else:
            print("wall setup_s=%.4f epoch_s=%s speed=%.3f" % (
                t["setup_s"], [round(x, 4) for x in t["epoch_s"]], speed(t)))
    for message in sorted(set(failures)):
        print("check failed: " + message)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("trials %d, records in %s" % (len(trials), trace_path))

    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": stamp, "workload": args.workload,
                       "seed": args.seed, "trace": args.trace,
                       "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
