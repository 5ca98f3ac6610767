(** Mutable linear-program builder.

    A model is a set of variables with bounds, an objective, and linear
    constraints. Variables default to [0 <= x < infinity]. The builder is
    the single entry point for every formulation in this repository
    (Postcard's time-expanded program, the flow-based baseline, the Sec. VI
    extensions, and the random programs of the property tests).

    Storage: variables and rows live in flat growable arrays, and the rows'
    terms in two more (variable, coefficient), row after row. A row's
    terms are merged once, when the row is added, and kept ascending by
    variable. No per-row list is stored: {!row_terms} and {!iter_rows}
    build lists on demand, and converters read the matrix column-wise
    through {!write_columns}. *)

type t

type var = private int
(** Variable handle; also the variable's column index in builder order. *)

type row = private int
(** Constraint handle; also the row index in builder order. *)

type sense = Le | Ge | Eq

type objective_sense = Minimize | Maximize

val create : ?name:string -> objective_sense -> t

val name : t -> string

val objective_sense : t -> objective_sense

val add_var :
  t -> ?name:string -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var
(** Add a variable. Defaults: [lb = 0.], [ub = infinity], [obj = 0.].
    Use [lb:neg_infinity] for a free variable. Raises [Invalid_argument]
    if [lb > ub] or either bound is NaN. When [name] is omitted no name is
    stored; {!var_name} synthesizes ["x<index>"] on demand (large
    formulations should omit names — an eager name per column is pure
    allocation overhead). *)

val add_vars : t -> int -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var array
(** [add_vars t k] adds [k] variables sharing the same bounds/objective. *)

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val add_obj : t -> var -> float -> unit
(** Accumulate into a variable's objective coefficient. *)

val add_constraint : t -> ?name:string -> (var * float) list -> sense -> float -> row
(** [add_constraint t terms sense rhs] adds [sum terms (sense) rhs], the
    sum also taking every term staged by {!stage_term} since the previous
    row, ahead of [terms]. The terms are sorted stably by variable, the
    coefficients of one variable are summed left to right, and a variable
    whose sum is zero is dropped. As with {!add_var}, an omitted [name]
    stores nothing and {!row_name} synthesizes ["r<index>"]. *)

val stage_term : t -> var -> float -> unit
(** [stage_term t v c] appends the term [c * v] to the row the next
    {!add_constraint} adds, without building a list: formulations that
    emit many rows stage their terms and close each row with
    [add_constraint t [] sense rhs]. *)

val reserve : t -> vars:int -> rows:int -> terms:int -> unit
(** [reserve t ~vars ~rows ~terms] makes room for that many more
    variables, rows and row terms, so that adding them allocates nothing:
    a formulation that knows its size asks once instead of letting the
    arrays double their way there. Only capacity changes. *)

val num_vars : t -> int
val num_rows : t -> int

val var_of_index : t -> int -> var
(** Recover a handle from a raw column index (bounds-checked). *)

val row_of_index : t -> int -> row
(** Recover a handle from a raw row index (bounds-checked). *)

val var_name : t -> var -> string
val row_name : t -> row -> string
val lower_bound : t -> var -> float
val upper_bound : t -> var -> float
val obj_coeff : t -> var -> float

val row_terms : t -> row -> (var * float) list
(** The row's terms, ascending by variable with no zero coefficient. The
    list is built on each call. *)

val row_sense : t -> row -> sense
val row_rhs : t -> row -> float

val iter_rows : t -> (row -> (var * float) list -> sense -> float -> unit) -> unit
(** [iter_rows t f] calls [f] on every row in order, with the terms as
    {!row_terms} gives them (built on demand). *)

val num_terms : t -> int
(** The number of stored row terms: the nonzeros of the constraint
    matrix. *)

val blit_vars : t -> lb:float array -> ub:float array -> obj:float array -> unit
(** [blit_vars t ~lb ~ub ~obj] writes every variable's lower bound, upper
    bound and objective coefficient into the first {!num_vars} entries of
    [lb], [ub] and [obj], by index. Raises [Invalid_argument] if an array
    is shorter. *)

val blit_rhs : t -> float array -> unit
(** [blit_rhs t rhs] writes every row's right-hand side into the first
    {!num_rows} entries of [rhs], by index. Raises [Invalid_argument] if
    it is shorter. *)

val write_columns :
  t -> colptr:int array -> rowind:int array -> values:float array -> unit
(** [write_columns t ~colptr ~rowind ~values] writes the constraint matrix
    column by column (compressed sparse columns): variable [j]'s entries
    are [(rowind.(p), values.(p))] for [colptr.(j) <= p < colptr.(j + 1)],
    ascending by row, with the terms {!row_terms} gives. It fills the
    first [num_vars + 1] entries of [colptr] and the first {!num_terms}
    of [rowind] and [values], leaving the rest as they are, and raises
    [Invalid_argument] if an array is shorter. One counting pass over the
    stored rows, for converters such as {!Standard_form}. *)

val objective_value : t -> float array -> float
(** [objective_value t x] evaluates the objective at a full assignment
    (indexed by variable). *)

val constraint_violation : t -> float array -> float
(** [constraint_violation t x] is the largest absolute violation of any
    constraint or bound at [x]; [0.] means feasible. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of the whole program (for debugging). *)
