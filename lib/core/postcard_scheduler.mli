(** The Postcard online scheduler: at each epoch, solve the time-expanded
    program of {!Formulate} for the newly released files and commit the
    optimal store-and-forward plan.

    When the instance is infeasible (deadlines cannot be met under the
    residual capacities), files are dropped highest-rate-first until the
    rest fits; dropped files are reported as rejected. A solver failure
    (pivot budget, numerical breakdown) takes the same drop-and-retry
    path, but is never silent: each one increments the
    [postcard.solver_failures] counter of {!Obs.Metrics} and, when
    tracing, emits a [postcard.solver_failure] point (epoch, files in the
    failed subset, message) that [trace-summary] counts. *)

val make :
  ?params:Lp.Simplex.params ->
  ?tie_break:float ->
  ?warm_start:bool ->
  unit ->
  Scheduler.t
(** [warm_start] (default [true]) carries each epoch's optimal simplex
    basis — re-keyed by the stable structural keys of {!Basis_map} — into
    the next epoch's solve, which typically cuts the pivot count by a
    large factor on sliding-horizon workloads. Pass [false] to force every
    solve cold (useful for benchmarking and debugging). Either way every
    epoch's plan is optimal for that epoch's program, with identical LP
    objective; but Postcard programs are massively degenerate, so warm and
    cold solves may pick different cost-equal vertices, and committing a
    different optimal plan can nudge later epochs' programs — simulated
    cost trajectories therefore agree per epoch in optimality, not
    bit-for-bit across a run. *)
