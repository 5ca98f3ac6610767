(** Immutable sparse matrices in compressed sparse column form, plus a
    mutable triplet builder. Row/column indices are 0-based. *)

type t

type builder

val builder : nrows:int -> ncols:int -> builder
(** Fresh empty builder for an [nrows] x [ncols] matrix. *)

val add : builder -> row:int -> col:int -> float -> unit
(** Accumulate a coefficient; duplicate [(row, col)] entries are summed at
    [finalize] time. Raises [Invalid_argument] on out-of-range indices. *)

val finalize : builder -> t
(** Build the CSC matrix. Entries that sum to exactly [0.] are dropped.
    Within each column, rows are sorted ascending. The builder remains
    usable. *)

val of_arrays :
  nrows:int ->
  ncols:int ->
  colptr:int array ->
  rowind:int array ->
  values:float array ->
  t
(** Wrap arrays already in compressed sparse column form, without
    copying: column [j]'s entries are [rowind.(k), values.(k)] for
    [colptr.(j) <= k < colptr.(j + 1)]. The caller promises what
    {!finalize} guarantees: [colptr] nondecreasing, rows in range and
    strictly ascending within each column, no zero value. Only the array
    lengths and the ends of [colptr] are checked ([Invalid_argument]).
    The arrays must not be mutated afterwards. *)

val nrows : t -> int
val ncols : t -> int
val nnz : t -> int

val column : t -> int -> (int * float) array
(** [column m j] materializes column [j] as (row, value) pairs sorted by
    row. Allocates; prefer [iter_col] in hot paths. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m j f] applies [f row value] to each structural nonzero of
    column [j], in ascending row order. *)

val fold_col : t -> int -> init:'a -> f:('a -> int -> float -> 'a) -> 'a

val dot_col : t -> int -> float array -> float
(** [dot_col m j v] is the dot product of column [j] with the dense vector
    [v] — a tight loop without closure dispatch, for solver hot paths. *)

val scatter_col : t -> int -> float array -> unit
(** [scatter_col m j v] adds column [j] into the dense vector [v]. *)

val transpose : t -> t
(** [transpose m] is [m]'s transpose, built by one linear counting pass
    over the entries. Rows come out ascending in every column. Applied to
    a constraint matrix it is the row-major copy {!row_combination}
    reads. *)

val row_combination :
  t ->
  float array ->
  into:float array ->
  mark:bool array ->
  pattern:int array ->
  int
(** [row_combination at v ~into ~mark ~pattern], with [at = transpose m],
    adds [transpose m * v] into [into], touching only the columns of [m]
    that [v]'s nonzeros reach. It walks [v]'s nonzero entries [i] in
    ascending order and adds [m_ij * v_i] to [into.(j)] for each
    nonzero [m_ij]. So when [into] starts at zero, every [into.(j)]
    equals {!dot_col}[ m j v] exactly, the signs of zeros aside, at a
    cost set by the reached entries rather than by [nnz m].

    The reached columns are written to [pattern] in ascending order and
    their count is returned. [mark] must have length [ncols m] and be all
    [false] on entry; it is all [false] again on return. [into] and
    [pattern] need [ncols m] entries. Allocates nothing. *)

val col_nnz : t -> int -> int

val get : t -> int -> int -> float
(** [get m i j] is the [(i, j)] coefficient ([0.] when structurally zero).
    Logarithmic in the column size. *)

val matvec : t -> float array -> float array
(** [matvec m x] is the dense product [m * x]. *)

val matvec_t : t -> float array -> float array
(** [matvec_t m y] is the dense product [transpose m * y]. *)

val to_dense : t -> float array array
(** Row-major dense copy; intended for tests and small matrices. *)

val of_dense : float array array -> t

val select_columns : t -> int array -> t
(** [select_columns m cols] is the matrix whose [k]-th column is column
    [cols.(k)] of [m]. *)

val pp : Format.formatter -> t -> unit
