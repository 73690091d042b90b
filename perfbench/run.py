#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload netperf-1core --seed 1 --seconds 25 --trace 0

Every flag goes to the perfbench binary (see main.go). The Go build cache,
the binary, and the trace file and CPU profiles of a --trace 1 run all stay
under .bench_build/ at the repository root. The exit code is the benchmark's; a
checkout without the simulator's sources fails the build and exits 1.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TIMEOUT_S = 175


def flag_value(argv, name, default):
    """Return the value of --name in argv (either --name v or --name=v)."""
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def go_env():
    """Keep the toolchain's caches, temporary files and config inside BUILD."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    return env


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: the simulator's sources are missing" % ROOT, file=sys.stderr)
        return 1
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, timeout=TIMEOUT_S * 5)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if flag_value(argv, "--trace", "0") == "1" and flag_value(argv, "--trace-out", None) is None:
        name = "trace-%s-seed%s.json" % (flag_value(argv, "--workload", "none"), flag_value(argv, "--seed", "1"))
        argv = argv + ["--trace-out", os.path.join(BUILD, name)]
    # Its own process group, so stopping it also stops the set-up
    # processes it starts.
    # The Go environment too: a --trace 1 run decodes its profiles with
    # `go tool pprof`.
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, env=go_env(), start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print("perfbench: no result within %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
