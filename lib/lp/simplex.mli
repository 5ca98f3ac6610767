(** Revised simplex method for linear programs with bounded variables,
    with a dual-simplex re-optimization path for warm starts.

    The implementation is a primal, two-phase bounded-variable simplex:

    - the basis inverse is maintained as a sparse {!Sparselin.Lu}
      factorization composed with a file of product-form {!Sparselin.Eta}
      updates, refactorized periodically;
    - phase 1 drives explicit artificial variables (one per row) to zero;
    - pricing is Devex (reference-framework weights), the standard remedy
      for the massive dual degeneracy of network-structured programs;
    - long runs of degenerate pivots first trigger a deterministic tiny
      cost perturbation (restored, and optimality re-verified, before a
      phase concludes), then Bland's rule as the terminal anti-cycling
      guarantee;
    - the ratio test is a two-pass test preferring large pivot elements
      among near-tied ratios, and supports bound flips of the entering
      variable;
    - the pivot row [beta = rho^T [A | artificials]], with
      [rho = B^-T e_r], is computed row-wise: only the rows where [rho] is
      nonzero are read, through a row-major copy of [A]
      ({!Sparselin.Csc.transpose}) built the first time a solve needs a
      pivot row. The dual ratio test and the primal reduced-cost/Devex
      update then loop over the columns that row reaches, in ascending
      order, instead of over every column. Each [beta_j] accumulates over
      ascending rows like a column dot product, so the values, and with
      them every pivot choice, are those of the column-wise computation.
      The pivot loop reuses per-solve scratch vectors and allocates only
      its eta updates.

    Warm starts additionally carry a dual simplex: when the supplied
    basis installs dual-feasibly (the common case for slot-to-slot
    re-solves, where only RHS/bounds changed), re-optimization runs dual
    pivots — most-infeasible leaving row under dual Devex row weights, a
    bounded-variable two-pass dual ratio test over the pivot row — and
    never touches phase 1 or the repair ladder. An infeasible re-solve
    ends there too: the dual ray it stops on is accepted as the verdict
    only once {!farkas_certifies} proves it against the original data.
    Any other dual difficulty (a dual-infeasible install, a ray that does
    not verify, persistent dual degeneracy, numerical failure) falls back
    to the primal warm crash, which itself falls back to a cold solve.

    This solver is exact up to floating-point tolerances for any LP built
    with {!Model}; the test suite cross-checks it against the independent
    dense implementation in {!Dense_simplex} and against combinatorial
    network-flow algorithms. *)

type params = {
  max_iterations : int;  (** Pivot budget across both phases. *)
  dual_tolerance : float;  (** Reduced-cost optimality tolerance. *)
  feasibility_tolerance : float;  (** Bound/row violation tolerance. *)
  pivot_tolerance : float;  (** Smallest acceptable pivot magnitude. *)
  refactor_frequency : int;  (** Eta updates between refactorizations. *)
  degenerate_switch : int;
      (** Consecutive degenerate pivots before escalating (perturbation,
          then Bland's rule). *)
}

val default_params : params

val farkas_certifies : Standard_form.t -> float array -> bool
(** [farkas_certifies sf y] holds when the row multipliers [y] prove
    [A x = b, lb <= x <= ub] (the structural and logical columns of [sf])
    infeasible: with [g_j = y . A_j], [y . b] lies outside the interval
    that [sum_j g_j x_j] spans over the box, by more than
    [1e-6 * (1 + sum |bound terms used| + sum |y_i b_i|)]. A nonzero
    [g_j] whose bound on the needed side is infinite leaves that side
    unbounded. It reads only [sf], so any [y] it accepts is a valid
    certificate however it was computed. *)

val solve :
  ?params:params ->
  ?warm_start:Status.Basis.t ->
  ?dual_reopt:bool ->
  Model.t ->
  Status.outcome
(** Solve a model. The returned solution is expressed in the model's own
    variable/row indexing and objective sense, and carries the optimal
    basis ({!Status.solution.basis}).

    [warm_start] starts the solver from a basis captured by an earlier
    solve (of this model or of a structurally similar one, translated onto
    this model's indices). With [dual_reopt] (the default), a basis that
    installs dual-feasibly re-optimizes with the dual simplex — zero
    phase-1 pivots, zero repair rounds, outcome
    {!Status.Dual_reopt}, and [Infeasible] only on a dual ray that
    {!farkas_certifies} — and otherwise the primal crash path runs: the
    carried basis is repaired before use (dependent columns demoted
    through {!Sparselin.Lu.crash_select}, uncovered rows regain their
    slack/artificial column, out-of-bound basic values parked at the
    violated bound) and the solver falls back to the ordinary cold start
    whenever repair fails or a numerical failure occurs while iterating
    from the warm basis. [~dual_reopt:false] forces the primal path (the
    scale benchmark uses it to separate the two warm curves). Supplying a
    wrong or stale basis is always safe: it can only cost iterations,
    never correctness. *)
