#!/usr/bin/env bash
# CPU-time profile of one command, split by function, with no perf and no
# kernel setting: runs the command with tools/sample_profile.c preloaded,
# which records the interrupted program counter and the word at the
# interrupted stack pointer on a SIGPROF per millisecond of the process's
# CPU time (setitimer ITIMER_PROF; the kernel may deliver them at its own
# tick), then symbolizes the samples with `nm -C` against each sampled
# executable. Prints, per sampled process, every function with at least
# 0.5 % of the samples, the rest of the binary in one line, and the share
# that fell outside the binary (shared libraries, vdso), split by mapping.
# Inlined code counts toward the function it was inlined into.
#
# A sample outside the binary whose stack word points into the binary's
# text is printed as `libc.so.6 ← FUNCTION`, FUNCTION holding that address.
# The word is the return address only while the library function is a
# frame-less leaf that has pushed nothing (memcpy, memset); otherwise it is
# a saved register or a local, which rarely points into text and then
# leaves the sample in the outside line. A call the compiler made as a tail
# call (a jump) left no return address into its caller, so it names the
# caller's caller. The command's own output and exit status pass through;
# the profile follows its output on stdout. x86-64 Linux only.
#
#   tools/sample_profile.sh COMMAND [ARG...]
#   tools/sample_profile.sh .bench_build/e2e/bench_e2e --workload population \
#       --seed 1 --seconds 15
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi
if [ "$(uname -s)" != Linux ] || [ "$(uname -m)" != x86_64 ]; then
  echo "sample_profile: needs x86-64 Linux, not $(uname -s) $(uname -m)" >&2
  exit 2
fi

here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -fPIC -shared -o "$work/sampler.so" "$here/sample_profile.c"

status=0
LD_PRELOAD="$work/sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

python3 - "$work" <<'EOF' || status=1
import bisect, collections, os, subprocess, sys

work = sys.argv[1]
files = sorted(f for f in os.listdir(work) if f.startswith("samples."))
processes = []
for name in files:
    exe, maps, pcs, dropped = "", [], [], 0
    with open(os.path.join(work, name)) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "pc":
                pcs.append(tuple(int(v, 16) for v in rest.split()))
            elif kind == "map":
                start, end, offset, *path = rest.split(" ", 3)
                maps.append((int(start, 16), int(end, 16), int(offset, 16),
                             path[0] if path else ""))
            elif kind == "exe":
                exe = rest
            elif kind == "dropped":
                dropped = int(rest)
    if pcs:
        processes.append((len(pcs), name.split(".")[1], exe, maps, pcs,
                          dropped))
if not processes:
    sys.exit("sample_profile: no samples were recorded")


def load_segments(exe):
    """(file offset, virtual address, size) of each PT_LOAD segment."""
    out = subprocess.run(["readelf", "-lW", exe], capture_output=True,
                         text=True, check=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def functions(exe):
    """Sorted (address, size, name) of the text symbols `nm -C` lists."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        f = line.split(" ", 3)
        if len(f) == 4 and f[2] in "tTwWiI":
            syms.append((int(f[0], 16), int(f[1], 16), f[3]))
    syms.sort()
    return syms


for count, pid, exe, maps, pcs, dropped in sorted(processes, reverse=True):
    if exe.endswith(" (deleted)"):
        sys.exit("sample_profile: %s was replaced during the run" % exe)
    segs = load_segments(exe)
    syms = functions(exe)
    starts = [s[0] for s in syms]

    def symbol(addr):
        """The binary's function holding addr, "[no symbol]" in its
        mappings, None outside them."""
        m = next((m for m in maps if m[0] <= addr < m[1] and m[3] == exe),
                 None)
        if m is None:
            return None
        off = addr - m[0] + m[2]
        seg = next((s for s in segs if s[0] <= off < s[0] + s[2]), None)
        vaddr = seg[1] + off - seg[0] if seg else -1
        i = bisect.bisect_right(starts, vaddr) - 1
        if i >= 0 and vaddr < syms[i][0] + max(syms[i][1], 1):
            return syms[i][2]
        return "[no symbol]"

    inside = collections.Counter()
    outside = collections.Counter()
    for pc, stack_top in pcs:
        name = symbol(pc)
        if name is not None:
            inside[name] += 1
            continue
        m = next((m for m in maps if m[0] <= pc < m[1]), None)
        lib = os.path.basename(m[3]) if m and m[3] else "[anonymous]"
        caller = symbol(stack_top)
        if caller is None or caller == "[no symbol]":
            outside[lib] += 1
        else:
            inside["%s \u2190 %s" % (lib, caller)] += 1
    pct = lambda n: 100.0 * n / count
    print("sample_profile: %s (pid %s): %d samples%s"
          % (exe, pid, count, ", %d dropped" % dropped if dropped else ""))
    print("  share  samples  function")
    rest = 0
    for name, n in inside.most_common():
        if pct(n) >= 0.5:
            short = name if len(name) <= 160 else name[:157] + "..."
            print("%6.1f %% %8d  %s" % (pct(n), n, short))
        else:
            rest += n
    if rest:
        print("%6.1f %% %8d  [other functions of the binary, and library"
              " time they called]" % (pct(rest), rest))
    total_out = sum(outside.values())
    print("%6.1f %% %8d  outside the binary, caller not named%s" % (
        pct(total_out), total_out,
        ": " + ", ".join("%s %.1f %%" % (name, pct(n))
                         for name, n in outside.most_common())
        if total_out else ""))
EOF
exit "$status"
