"""One set-up of a workload, in a fresh process, for run.py's ``setup_s``.

    python3 -S benchmark/setup_probe.py SRC CALLS

CALLS is a marshal file of the workload's constructor calls, made in
advance by run.py (see workloads.constructor_calls).  The probe imports
toricap from SRC and makes every call.  It times the import and each call,
and after each the reference kernel, and divides each span by the mean of
the kernels timed around it.  Only built-in modules are imported before
toricap, and ``kernel`` after it, so every import the program needs is
timed and nothing else is.

It prints one line: "ready", the seconds from its first statement to the
print, the seconds of the program's work (import and calls), the same in
kernel durations, and the kernel's duration after the import.  run.py adds
interpreter start, which it times from outside.
"""
import marshal
import sys
import time

WINDOW = 15

start = time.perf_counter()
with open(sys.argv[2], "rb") as fh:
    calls = marshal.load(fh)
sys.path.insert(0, sys.argv[1])

began = time.perf_counter()
import toricap  # noqa: E402

program = time.perf_counter() - began
from kernel import time_kernel, trimmed_mean  # noqa: E402

# the import is one span of about 0.1 s: time kernels for as long, so
# that their mean sees the same mix of the host's fast and slow spells
kernels = []
while len(kernels) < WINDOW or sum(kernels) < program:
    kernels.append(time_kernel())
after_import = trimmed_mean(kernels)
in_kernels = program / after_import
for name, arg in calls:
    module, attr = name.split(".")
    began = time.perf_counter()
    getattr(getattr(toricap, module), attr)(arg)
    took = time.perf_counter() - began
    kernels.append(time_kernel())
    program += took
    in_kernels += took / trimmed_mean(kernels[-WINDOW:])
print("ready", time.perf_counter() - start, program, in_kernels, after_import, flush=True)
