"""``vmpi`` -- a miniature MPI-like message-passing library.

The paper's framework (InterComm) sits on MPI and relies on SPMD
*collective operation semantics*: every process of a parallel program
issues the same sequence of operations with matching arguments.  This
package provides that substrate in pure Python, with two interchangeable
backends:

* :class:`repro.vmpi.des_backend.DesWorld` /
  :class:`repro.vmpi.des_backend.DesCommunicator` -- ranks are
  discrete-event processes on a virtual clock (deterministic; used by
  all benchmarks).
* :class:`repro.vmpi.thread_backend.ThreadWorld` /
  :class:`repro.vmpi.thread_backend.ThreadCommunicator` -- ranks are OS
  threads communicating through queues (really concurrent; used by the
  live examples).

Collective algorithms (binomial broadcast/reduce, recursive-doubling
allreduce, dissemination barrier, ring allgather, pairwise alltoall,
Hillis-Steele scan) are expressed once as backend-independent *plans*
(:mod:`repro.vmpi.plans`) -- pure data describing the send/recv/combine
steps of one rank -- and executed by whichever backend is in use.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.vmpi.des_backend import DesWorld
    from repro.vmpi.message import ANY_SOURCE, ANY_TAG
    from repro.vmpi.plans import (
        plan_allgather,
        plan_allreduce,
        plan_alltoall,
        plan_barrier,
        plan_bcast,
        plan_exscan,
        plan_gather,
        plan_reduce,
        plan_reduce_scatter,
        plan_scan,
        plan_scatter,
        simulate_plans,
    )
    from repro.vmpi.reduce_ops import MAX, MAXLOC, MIN, PROD, SUM
    from repro.vmpi.thread_backend import ThreadWorld

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.vmpi.des_backend": ("DesWorld",),
        "repro.vmpi.message": ("ANY_SOURCE", "ANY_TAG"),
        "repro.vmpi.plans": (
            "plan_allgather",
            "plan_allreduce",
            "plan_alltoall",
            "plan_barrier",
            "plan_bcast",
            "plan_exscan",
            "plan_gather",
            "plan_reduce",
            "plan_reduce_scatter",
            "plan_scan",
            "plan_scatter",
            "simulate_plans",
        ),
        "repro.vmpi.reduce_ops": ("MAX", "MAXLOC", "MIN", "PROD", "SUM"),
        "repro.vmpi.thread_backend": ("ThreadWorld",),
    },
)
