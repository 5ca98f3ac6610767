(** Directed graphs with float capacities and per-unit costs on arcs.

    Nodes are dense integers [0 .. num_nodes - 1]; arcs carry an id in
    insertion order. Parallel arcs are allowed. This is the shared
    representation for the inter-datacenter overlay ({!Topology}), the
    combinatorial flow algorithms ({!Maxflow}, {!Mincostflow}) and the
    time-expanded construction in the [timexp] library. *)

type t

type arc = {
  id : int;
  src : int;
  dst : int;
  capacity : float;
  cost : float;  (** Cost per unit of traffic. *)
}

val create : n:int -> t
(** Graph with [n] nodes and no arcs. *)

val add_node : t -> int
(** Append a node, returning its index. *)

val add_arc : t -> src:int -> dst:int -> ?capacity:float -> ?cost:float -> unit -> int
(** Add an arc and return its id. Defaults: infinite capacity, zero cost.
    Raises [Invalid_argument] on out-of-range endpoints, negative capacity
    or a self-loop. *)

val num_nodes : t -> int
val num_arcs : t -> int

val arc : t -> int -> arc

val out_arcs : t -> int -> int list
(** Ids of arcs leaving a node, in insertion order. *)

val in_arcs : t -> int -> int list

val iter_out_arcs : t -> int -> (int -> unit) -> unit
(** [iter_out_arcs g v f] calls [f] on the ids of the arcs leaving [v], in
    insertion order, without building the list {!out_arcs} returns. *)

val iter_in_arcs : t -> int -> (int -> unit) -> unit
(** [iter_in_arcs g v f] is {!iter_out_arcs} for the arcs entering [v]. *)

val find_arc : t -> src:int -> dst:int -> int option
(** First arc from [src] to [dst], if any. *)

val iter_arcs : t -> (arc -> unit) -> unit
val fold_arcs : t -> init:'a -> f:('a -> arc -> 'a) -> 'a

val map_capacities : t -> (arc -> float) -> t
(** Functional update of every arc capacity. *)

val pp : Format.formatter -> t -> unit
