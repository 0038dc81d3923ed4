"""Benchmark of the permspectra package; see README.md in this directory."""

# One client, one thread.  Set in the environment before numpy is imported:
# numpy's BLAS would otherwise start a thread per core, its speed would depend
# on whether the other cores are busy, and the last bits of some results
# (mod exact moments at n >= 10^5, c_numeric) on the number of cores.
SINGLE_THREAD_ENV = {name: "1" for name in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
