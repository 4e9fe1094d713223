#!/usr/bin/env python3
"""Flat wall-clock profile of one process by sampling its program counter.

A development tool, not a CI step: `perf` is often missing where the
simulator is profiled, and this needs only Python's standard library, a
Linux kernel that lets a parent ptrace its own child, and `nm`.

It starts the command, attaches with PTRACE_SEIZE, and every interval
interrupts the process, reads its program counter, and lets it run on.
Each sample is attributed to the symbol of the executable (from `nm`)
or to the shared object its address falls in. The sampled program's
stdout goes to stderr; the profile goes to stdout.

Usage, on one repetition of a benchmark workload (the child mode that
`tango_bench` runs each repetition in):

    bash benchmark/run.sh --help >/dev/null   # builds .bench_build
    python3 ci/pc_sample.py --hz 1000 --top 40 -- \\
        .bench_build/default/benchmark/tango_bench.exe \\
        --child map-tx --seed 1 --window-us 400000 --trace 0

`--by module` folds OCaml symbols (camlStdlib__Hashtbl.find_123) into
their module (Stdlib__Hashtbl). x86-64 and aarch64 only.
"""

import argparse
import bisect
import ctypes
import os
import platform
import re
import signal
import subprocess
import sys
import time
from collections import Counter

PTRACE_CONT = 7
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
NT_PRSTATUS = 1

# user_regs_struct: how many words, and which one is the program counter
REGS = {"x86_64": (27, 16), "aarch64": (34, 32)}

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class Iovec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({req:#x}): {os.strerror(err)}")


def read_pc(pid, nregs, pc_index):
    buf = (ctypes.c_ulong * nregs)()
    iov = Iovec(ctypes.cast(buf, ctypes.c_void_p), ctypes.sizeof(buf))
    ptrace(PTRACE_GETREGSET, pid, NT_PRSTATUS, ctypes.addressof(iov))
    return buf[pc_index]


def text_symbols(exe):
    """Sorted (address, name) of the executable's code symbols."""
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True, check=True)
    syms = []
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    return syms


def is_pie(exe):
    with open(exe, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN


def mappings(pid):
    """(start, end, file offset, path) of every file-backed executable mapping."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1]:
                start, end = (int(x, 16) for x in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5]))
    return maps


def module_of(sym):
    m = re.match(r"caml([A-Za-z0-9_]+)[.$]", sym)
    return m.group(1) if m else sym


def sample(cmd, hz):
    arch = platform.machine()
    if arch not in REGS:
        raise SystemExit(f"pc_sample: unsupported architecture {arch}")
    nregs, pc_index = REGS[arch]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    pid = proc.pid
    ptrace(PTRACE_SEIZE, pid)
    pcs = []
    maps = None
    exit_status = None
    interval = 1.0 / hz
    try:
        while True:
            time.sleep(interval)
            try:
                ptrace(PTRACE_INTERRUPT, pid)
            except OSError:
                break  # gone
            while True:
                _, status = os.waitpid(pid, 0)
                if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                    exit_status = os.waitstatus_to_exitcode(status)
                    break
                sig = os.WSTOPSIG(status)
                if (status >> 16) == PTRACE_EVENT_STOP:
                    if maps is None:
                        maps = mappings(pid)
                    pcs.append(read_pc(pid, nregs, pc_index))
                    ptrace(PTRACE_CONT, pid)
                    break
                # a signal of the program's own: deliver it, then wait on
                ptrace(PTRACE_CONT, pid, 0, sig)
            if exit_status is not None:
                break
    except KeyboardInterrupt:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        raise
    return pcs, maps or [], exit_status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--hz", type=float, default=1000.0, help="samples per wall second (default 1000)")
    ap.add_argument("--top", type=int, default=40, help="rows to print (default 40)")
    ap.add_argument("--by", choices=["symbol", "module"], default="symbol")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- EXE ARGS...")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command to sample")
    exe = cmd[0]
    syms = text_symbols(exe)
    addrs = [a for a, _ in syms]
    pie = is_pie(exe)
    t0 = time.time()
    pcs, maps, exit_status = sample(cmd, args.hz)
    wall = time.time() - t0
    # a position-independent executable's symbols are relative to its
    # load address: where its code mapping landed, less the file offset
    real = os.path.realpath(exe)
    bases = [s - off for s, _, off, path in maps if os.path.realpath(path) == real]
    base = bases[0] if pie and bases else 0
    counts = Counter()
    for pc in pcs:
        name = None
        for start, end, _, path in maps:
            if start <= pc < end and os.path.realpath(path) != real:
                name = f"[{os.path.basename(path)}]"
                break
        if name is None:
            i = bisect.bisect_right(addrs, pc - base) - 1
            name = syms[i][1] if i >= 0 else "[unknown]"
        counts[module_of(name) if args.by == "module" else name] += 1
    total = sum(counts.values())
    print(f"# {total} samples over {wall:.1f} wall-s of: {' '.join(cmd)} (exit {exit_status})")
    if total == 0:
        return 1
    print(f"{'share':>7} {'samples':>8}  {args.by}")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
