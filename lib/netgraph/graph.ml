type arc = {
  id : int;
  src : int;
  dst : int;
  capacity : float;
  cost : float;
}

type t = {
  mutable n : int;
  mutable arcs : arc array;
  mutable n_arcs : int;
  (* Adjacency lists in reverse insertion order; exposed reversed. *)
  mutable out_adj : int list array;
  mutable in_adj : int list array;
}

let create ~n =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  { n;
    arcs = [||];
    n_arcs = 0;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [] }

let num_nodes g = g.n
let num_arcs g = g.n_arcs

let add_node g =
  let id = g.n in
  if id >= Array.length g.out_adj then begin
    let cap' = 2 * Array.length g.out_adj in
    let grow a =
      let a' = Array.make cap' [] in
      Array.blit a 0 a' 0 g.n;
      a'
    in
    g.out_adj <- grow g.out_adj;
    g.in_adj <- grow g.in_adj
  end;
  g.out_adj.(id) <- [];
  g.in_adj.(id) <- [];
  g.n <- id + 1;
  id

let add_arc g ~src ~dst ?(capacity = infinity) ?(cost = 0.) () =
  if src < 0 || src >= g.n then invalid_arg "Graph.add_arc: src out of range";
  if dst < 0 || dst >= g.n then invalid_arg "Graph.add_arc: dst out of range";
  if src = dst then invalid_arg "Graph.add_arc: self-loop";
  if capacity < 0. || Float.is_nan capacity then
    invalid_arg "Graph.add_arc: negative capacity";
  let id = g.n_arcs in
  if id = Array.length g.arcs then begin
    let cap' = max 16 (2 * Array.length g.arcs) in
    let arcs' = Array.make cap' { id = 0; src = 0; dst = 1; capacity = 0.; cost = 0. } in
    Array.blit g.arcs 0 arcs' 0 g.n_arcs;
    g.arcs <- arcs'
  end;
  g.arcs.(id) <- { id; src; dst; capacity; cost };
  g.n_arcs <- id + 1;
  g.out_adj.(src) <- id :: g.out_adj.(src);
  g.in_adj.(dst) <- id :: g.in_adj.(dst);
  id

let arc g id =
  if id < 0 || id >= g.n_arcs then invalid_arg "Graph.arc: id out of range";
  g.arcs.(id)

let out_arcs g v =
  if v < 0 || v >= g.n then invalid_arg "Graph.out_arcs: node out of range";
  List.rev g.out_adj.(v)

let in_arcs g v =
  if v < 0 || v >= g.n then invalid_arg "Graph.in_arcs: node out of range";
  List.rev g.in_adj.(v)

(* The adjacency lists hold the newest arc first; visiting the tail before
   the head gives insertion order with no reversed copy. *)
let rec iter_oldest_first f = function
  | [] -> ()
  | id :: rest ->
      iter_oldest_first f rest;
      f id

let iter_out_arcs g v f =
  if v < 0 || v >= g.n then invalid_arg "Graph.iter_out_arcs: node out of range";
  iter_oldest_first f g.out_adj.(v)

let iter_in_arcs g v f =
  if v < 0 || v >= g.n then invalid_arg "Graph.iter_in_arcs: node out of range";
  iter_oldest_first f g.in_adj.(v)

let find_arc g ~src ~dst =
  if src < 0 || src >= g.n then invalid_arg "Graph.find_arc: src out of range";
  let rec search = function
    | [] -> None
    | id :: rest -> if g.arcs.(id).dst = dst then Some id else search rest
  in
  (* Reverse order does not matter for existence, but return the first
     inserted for determinism. *)
  search (List.rev g.out_adj.(src))

let iter_arcs g f =
  for id = 0 to g.n_arcs - 1 do
    f g.arcs.(id)
  done

let fold_arcs g ~init ~f =
  let acc = ref init in
  iter_arcs g (fun a -> acc := f !acc a);
  !acc

let map_capacities g f =
  let g' = create ~n:g.n in
  iter_arcs g (fun a ->
      ignore
        (add_arc g' ~src:a.src ~dst:a.dst ~capacity:(f a) ~cost:a.cost ()));
  g'

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d arcs" g.n g.n_arcs;
  iter_arcs g (fun a ->
      Format.fprintf ppf "@,%d -> %d (capacity %g, cost %g)" a.src a.dst
        a.capacity a.cost);
  Format.fprintf ppf "@]"
