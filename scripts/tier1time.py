#!/usr/bin/env python3
"""Where the tier-1 suite's time goes (`make tier1-time`): the 20 slowest
tests, and per package its wall time and the user+sys CPU seconds of its
test binary. Two modes:

    python3 scripts/tier1time.py exec RUSAGE BINARY ARGS...
    python3 scripts/tier1time.py report TEST.json RUSAGE

`exec` is the `go test -exec` wrapper: it runs the test binary (in the
package directory, where go test starts it), waits for it, and appends the
directory and the binary's user and sys seconds to RUSAGE. `report` reads
the `go test -json` stream and that file and prints the tables. The CPU
column is the test binary's own: compiling and linking it are not in it.
"""
import json
import os
import sys


def run_exec(out, argv):
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    with open(out, "a") as f:
        f.write("%s\t%.3f\t%.3f\n" % (os.getcwd(), ru.ru_utime, ru.ru_stime))
    sys.exit(os.waitstatus_to_exitcode(status))


def module_path():
    for line in open("go.mod"):
        if line.startswith("module "):
            return line.split()[1]
    sys.exit("tier1time: no module line in go.mod")


def report(events_path, rusage_path):
    mod, root = module_path(), os.getcwd()
    tests, pkgs = [], {}
    for line in open(events_path):
        if not line.startswith("{"):
            continue
        ev = json.loads(line)
        if ev.get("Action") not in ("pass", "fail", "skip") or "Elapsed" not in ev:
            continue
        if "Test" in ev:
            if "/" not in ev["Test"]:
                tests.append((ev["Elapsed"], ev["Package"], ev["Test"], ev["Action"]))
        else:
            pkgs[ev["Package"]] = [ev["Elapsed"], None, ev["Action"]]
    for line in open(rusage_path):
        d, user, sys_s = line.rstrip("\n").split("\t")
        rel = os.path.relpath(d, root)
        pkg = mod if rel == "." else mod + "/" + rel
        if pkg in pkgs:
            prev = pkgs[pkg][1] or 0.0
            pkgs[pkg][1] = prev + float(user) + float(sys_s)

    tests.sort(reverse=True)
    print("20 slowest tests (top-level, wall s):")
    for el, pkg, name, action in tests[:20]:
        flag = "" if action == "pass" else "  [" + action + "]"
        print("  %8.2f  %s.%s%s" % (el, pkg.removeprefix(mod + "/"), name, flag))
    print()
    print("%-36s %9s %9s" % ("package", "wall s", "cpu s"))
    total_wall = total_cpu = 0.0
    for pkg, (wall, cpu, action) in sorted(pkgs.items(), key=lambda kv: -(kv[1][1] or 0)):
        total_wall += wall
        total_cpu += cpu or 0
        flag = "" if action == "pass" else "  [" + action + "]"
        cpu_s = "%9.2f" % cpu if cpu is not None else "%9s" % "-"
        print("%-36s %9.2f %s%s" % (pkg.removeprefix(mod + "/"), wall, cpu_s, flag))
    print("%-36s %9.2f %9.2f" % ("sum", total_wall, total_cpu))


def main():
    if len(sys.argv) >= 4 and sys.argv[1] == "exec":
        run_exec(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "report":
        report(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
