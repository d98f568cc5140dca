#!/usr/bin/env python3
"""Bench-regression gate for the BENCH_*.json records CI uploads.

Downloads the most recent bench-json artifact produced on `main`,
compares its headline numbers against the JSON files of the current run,
and fails (exit 1) on a regression beyond the threshold. Every problem
that is *not* a measured regression — no baseline yet, expired
artifacts, API errors, missing metrics — degrades to a warning and exit
0, so the gate can never wedge a repository whose history lacks
baselines.

Headline metrics (direction-aware):
  micro_lpm       lpm_lookups_per_sec, lpm_batch_lookups_per_sec,
                  lpm_simd_lookups_per_sec (higher is better; the simd
                  key appears only when the AVX2 kernel ran),
                  lpm_build_ms (lower is better)
  micro_lpm6      lpm6_lookups_per_sec, lpm6_batch_lookups_per_sec,
                  lpm6_simd_lookups_per_sec (higher is better),
                  lpm6_build_ms (lower is better)
  micro_delta     delta_ms per churn rate (lower is better)
  micro_coldstart load_ms (lower is better), speedup (higher is better)
  micro_serve     qps_per_core (higher is better), p99_us and
                  swap_p99_us (lower is better)
  micro_stream    updates_per_sec_sustained (higher is better),
                  update_to_plan_p99_ms (lower is better)
  micro_sample    sample_probe_efficiency (higher is better; probe
                  reduction achieved at <= 5% estimation error)
  micro_reduce    reduce_ratio_at_5pct (higher is better; prefix-count
                  reduction at the 5% overshoot cap) and
                  scope_build_speedup (higher is better; ScanScope
                  construction from the reduced list vs the original)

Usage (in CI):
  bench_compare.py --repo owner/name --artifact bench-json-gcc \
      --token "$GITHUB_TOKEN" --current BENCH_*.json [--warn-only]

Local use against a saved baseline directory:
  bench_compare.py --baseline-dir old/ --current BENCH_*.json
"""

import argparse
import io
import json
import pathlib
import sys
import urllib.error
import urllib.request
import zipfile

THRESHOLD = 0.25  # fail on >25% throughput regression

API = "https://api.github.com"


def log(message):
    print(f"bench-compare: {message}", file=sys.stderr)


def api_get(url, token):
    request = urllib.request.Request(url)
    request.add_header("Accept", "application/vnd.github+json")
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.read()


def fetch_baseline(repo, artifact_name, token, exclude_run_id):
    """Returns {filename: parsed-json} from the newest artifact on main
    (excluding the current run's own upload). Paginates so heavy PR
    traffic between main pushes cannot starve the listing of a main
    artifact."""
    candidates = []
    for page in range(1, 6):
        url = (f"{API}/repos/{repo}/actions/artifacts"
               f"?name={artifact_name}&per_page=100&page={page}")
        listing = json.loads(api_get(url, token))
        artifacts = listing.get("artifacts", [])
        # head_repository_id == repository_id rejects fork-PR uploads
        # whose fork branch happens to be named "main" — only runs of
        # this repository's own main may seed the baseline.
        candidates.extend(
            artifact for artifact in artifacts
            if not artifact.get("expired")
            and artifact.get("workflow_run", {}).get("head_branch") == "main"
            and artifact.get("workflow_run", {}).get("head_repository_id")
            == artifact.get("workflow_run", {}).get("repository_id")
            and str(artifact.get("workflow_run", {}).get("id")) !=
            str(exclude_run_id))
        if candidates or len(artifacts) < 100:
            break
    if not candidates:
        log(f"no usable '{artifact_name}' artifact from main yet")
        return None
    newest = max(candidates, key=lambda artifact: artifact["created_at"])
    log(f"baseline: artifact {newest['id']} from {newest['created_at']}")
    blob = api_get(newest["archive_download_url"], token)
    baseline = {}
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        for name in archive.namelist():
            if name.endswith(".json"):
                baseline[pathlib.Path(name).name] = json.loads(
                    archive.read(name))
    return baseline


def load_baseline_dir(path):
    baseline = {}
    for json_path in pathlib.Path(path).glob("*.json"):
        baseline[json_path.name] = json.loads(json_path.read_text())
    return baseline or None


def headline_metrics(record):
    """Yields (metric-name, value, higher_is_better) for one record."""
    bench = record.get("bench")
    if bench == "micro_lpm":
        # lpm_simd_lookups_per_sec is present only when the AVX2 kernel
        # ran; missing-in-baseline is already warn-only, so the key ages
        # in gracefully.
        for key in ("lpm_lookups_per_sec", "lpm_batch_lookups_per_sec",
                    "lpm_simd_lookups_per_sec"):
            if key in record:
                yield key, float(record[key]), True
        if "lpm_build_ms" in record:
            yield "lpm_build_ms", float(record["lpm_build_ms"]), False
    elif bench == "micro_lpm6":
        for key in ("lpm6_lookups_per_sec", "lpm6_batch_lookups_per_sec",
                    "lpm6_simd_lookups_per_sec"):
            if key in record:
                yield key, float(record[key]), True
        if "lpm6_build_ms" in record:
            yield "lpm6_build_ms", float(record["lpm6_build_ms"]), False
    elif bench == "micro_delta":
        for rate in record.get("rates", []):
            if "delta_ms" in rate:
                yield (f"delta_ms@churn={rate.get('churn')}",
                       float(rate["delta_ms"]), False)
    elif bench == "micro_coldstart":
        if "load_ms" in record:
            yield "load_ms", float(record["load_ms"]), False
        if "speedup" in record:
            yield "speedup", float(record["speedup"]), True
    elif bench == "micro_serve":
        if "qps_per_core" in record:
            yield "qps_per_core", float(record["qps_per_core"]), True
        if "p99_us" in record:
            yield "p99_us", float(record["p99_us"]), False
        if "swap_p99_us" in record:
            yield "swap_p99_us", float(record["swap_p99_us"]), False
    elif bench == "micro_stream":
        if "updates_per_sec_sustained" in record:
            yield ("updates_per_sec_sustained",
                   float(record["updates_per_sec_sustained"]), True)
        if "update_to_plan_p99_ms" in record:
            yield ("update_to_plan_p99_ms",
                   float(record["update_to_plan_p99_ms"]), False)
    elif bench == "micro_sample":
        if "sample_probe_efficiency" in record:
            yield ("sample_probe_efficiency",
                   float(record["sample_probe_efficiency"]), True)
    elif bench == "micro_reduce":
        if "reduce_ratio_at_5pct" in record:
            yield ("reduce_ratio_at_5pct",
                   float(record["reduce_ratio_at_5pct"]), True)
        if "scope_build_speedup" in record:
            yield ("scope_build_speedup",
                   float(record["scope_build_speedup"]), True)


def index_by_bench(files):
    by_bench = {}
    for record in files.values():
        if isinstance(record, dict) and "bench" in record:
            by_bench[record["bench"]] = record
    return by_bench


def compare(baseline_files, current_files):
    """Returns a list of regression strings; logs every comparison."""
    regressions = []
    old_by_bench = index_by_bench(baseline_files)
    new_by_bench = index_by_bench(current_files)
    for bench, new_record in sorted(new_by_bench.items()):
        old_record = old_by_bench.get(bench)
        if old_record is None:
            log(f"{bench}: no baseline record, skipping")
            continue
        old_metrics = dict(
            (name, (value, up))
            for name, value, up in headline_metrics(old_record))
        for name, new_value, higher_better in headline_metrics(new_record):
            if name not in old_metrics:
                log(f"{bench}.{name}: not in baseline, skipping")
                continue
            old_value, _ = old_metrics[name]
            if old_value <= 0 or new_value <= 0:
                log(f"{bench}.{name}: non-positive value, skipping")
                continue
            if higher_better:
                change = (old_value - new_value) / old_value
            else:
                change = (new_value - old_value) / old_value
            verdict = "REGRESSION" if change > THRESHOLD else "ok"
            log(f"{bench}.{name}: {old_value:.6g} -> {new_value:.6g} "
                f"({change:+.1%} toward-worse, {verdict})")
            if change > THRESHOLD:
                regressions.append(
                    f"{bench}.{name}: {old_value:.6g} -> {new_value:.6g} "
                    f"({change:+.1%} worse, threshold {THRESHOLD:.0%})")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", help="owner/name for the GitHub API")
    parser.add_argument("--artifact", help="artifact name holding baseline")
    parser.add_argument("--token", default="", help="GitHub API token")
    parser.add_argument("--exclude-run-id", default="",
                        help="workflow run id whose artifacts are never "
                             "a baseline (the current run)")
    parser.add_argument("--baseline-dir",
                        help="local directory of baseline JSON (no API)")
    parser.add_argument("--current", nargs="+", required=True,
                        help="BENCH_*.json files of this run")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0 "
                             "(fork PRs without secrets)")
    args = parser.parse_args()

    current = {}
    for path in args.current:
        try:
            current[pathlib.Path(path).name] = json.loads(
                pathlib.Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            log(f"cannot read current record {path}: {error}")
    if not current:
        log("no current bench records; nothing to compare")
        return 0

    try:
        if args.baseline_dir:
            baseline = load_baseline_dir(args.baseline_dir)
        elif args.repo and args.artifact:
            baseline = fetch_baseline(args.repo, args.artifact, args.token,
                                      args.exclude_run_id)
        else:
            log("no baseline source configured; skipping")
            return 0
    except (urllib.error.URLError, zipfile.BadZipFile, json.JSONDecodeError,
            OSError, KeyError) as error:
        log(f"cannot fetch baseline ({error}); skipping comparison")
        return 0
    if not baseline:
        log("no baseline available; skipping comparison")
        return 0

    regressions = compare(baseline, current)
    if not regressions:
        log("no regressions beyond threshold")
        return 0
    for regression in regressions:
        log(regression)
    if args.warn_only:
        log("warn-only mode: not failing the job")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
