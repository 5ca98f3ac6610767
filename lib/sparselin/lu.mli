(** Sparse LU factorization of a square matrix with partial pivoting,
    in the left-looking (Gilbert-Peierls) style. This is the basis
    factorization engine of the revised simplex method in {!Lp}.

    The factorization computed is [P * B * Q = L * U] where [P] is the row
    permutation chosen by Markowitz-ordered threshold pivoting (among rows
    whose magnitude is within a fixed factor of the column maximum, the one
    with the fewest input-matrix nonzeros — a static fill-in proxy — wins,
    with deterministic tie-breaks), [Q] is a caller supplied (or
    nnz-ascending) column ordering, [L] is unit lower triangular and [U] is
    upper triangular.

    [L] and [U] are stored column-compressed in flat [int]/[float] arrays,
    one column per elimination step, and the pattern search of the
    elimination uses an [int]-array stack. {!solve} and
    {!solve_transpose} run over these arrays with a work vector owned by
    the factorization, so they allocate nothing. That work vector makes
    one [t] unsafe to solve with from two domains at once: give each
    domain its own factorization. *)

type t

type error =
  | Singular of int
      (** [Singular k]: no acceptable pivot was found while factorizing the
          [k]-th column of the ordered matrix. *)

val factorize :
  ?col_order:int array -> dim:int -> (int -> (int * float) array) -> (t, error) result
(** [factorize ~dim col] factorizes the [dim] x [dim] matrix whose [j]-th
    column is [col j], given as (row, value) pairs with distinct rows.
    [col_order], when given, is the permutation [Q] (its [k]-th entry is the
    original column eliminated at step [k]; [Invalid_argument] when it is
    not a permutation of [0 .. dim - 1]); otherwise columns are ordered by
    increasing nonzero count, a cheap fill-reducing heuristic that suits
    near-triangular simplex bases. *)

val factorize_iter :
  ?col_order:int array ->
  dim:int ->
  (int -> (int -> float -> unit) -> unit) ->
  (t, error) result
(** [factorize_iter ~dim iter_col] is {!factorize} with the matrix supplied
    as an iterator: [iter_col j f] must call [f row value] for every nonzero
    of column [j] (distinct rows, any order). This is the allocation-free
    entry point used by the simplex basis factorization: entries stream
    straight into the elimination's scratch vectors with no intermediate
    per-column array. *)

val diagonal : float array -> t
(** [diagonal d] is the factorization of the diagonal matrix with the
    nonzero entries [d], as {!factorize} would give it (identity
    permutations, empty [L] and [U], [d] as the pivots), written down
    directly in O(n). [d] is copied. Unlike {!factorize} it is not
    counted in the [lu.*] metrics: nothing is eliminated. The simplex's
    all-artificial starting basis is such a matrix. *)

val crash_select :
  dim:int ->
  ncols:int ->
  (int -> (int -> float -> unit) -> unit) ->
  int array * int array
(** [crash_select ~dim ~ncols iter_col] greedily selects a maximal
    independent subset of the [ncols] candidate columns by running the same
    left-looking elimination and skipping (instead of failing on) columns
    with no acceptable pivot. Returns [(accepted, unpivoted)]: the indices
    of accepted candidates in elimination order, and the rows no accepted
    column pivoted — together they describe a nonsingular basis once the
    caller covers each unpivoted row with its slack or artificial column.
    Used to repair a warm-start basis carried between LP solves. *)

val dim : t -> int

val nnz : t -> int
(** Total stored entries of [L] and [U], a measure of fill-in. *)

val input_nnz : t -> int
(** Nonzeros of the matrix that was factorized. *)

val fill_in : t -> int
(** [nnz t - input_nnz t] clamped at zero: entries created by the
    elimination. Every factorization also records its dimension, nnz and
    fill-in in the {!Obs.Metrics} registry (series [lu.*]). *)

val solve : t -> float array -> unit
(** [solve f b] overwrites [b] with the solution [x] of [B x = b]
    (the simplex FTRAN). Allocates nothing; uses [f]'s work vector (see
    the note on domains above). *)

val solve_transpose : t -> float array -> unit
(** [solve_transpose f c] overwrites [c] with the solution [y] of
    [transpose B y = c] (the simplex BTRAN). Allocates nothing; uses
    [f]'s work vector. *)

val min_abs_diag : t -> float
(** Smallest pivot magnitude; a stability diagnostic. *)
