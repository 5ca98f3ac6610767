module Status = Lp.Status

type col_key =
  | Flow_tx of { file : int; link : int; slot : int }
  | Flow_store of { file : int; node : int; slot : int }
  | Charge of { link : int }
  | Supply of { file : int }
  | Anon_col of int

type row_key =
  | Conservation of { file : int; node : int; slot : int }
  | Capacity of { link : int; slot : int }
  | Charge_dom of { link : int; slot : int }
  | Anon_row of int

type keymap = {
  cols : col_key array;
  rows : row_key array;
}

module Registry = struct
  (* Keys by model index, in arrays that grow as columns and rows are
     registered; [unset_col]/[unset_row] mark indices never registered.
     [keymap] hands the arrays out as they are, so no registration may
     follow it. *)
  type t = {
    mutable cols : col_key array;
    mutable rows : row_key array;
    mutable taken : bool;
  }

  let unset_col = Anon_col (-1)
  let unset_row = Anon_row (-1)

  let create ~cols ~rows =
    { cols = Array.make (max 1 cols) unset_col;
      rows = Array.make (max 1 rows) unset_row;
      taken = false }

  let check_open t =
    if t.taken then invalid_arg "Basis_map.Registry: keymap already taken"

  let grown a i fill =
    if i < Array.length a then a
    else begin
      let a' = Array.make (max (i + 1) (2 * Array.length a)) fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end

  let set_col t (v : Lp.Model.var) k =
    check_open t;
    let j = (v :> int) in
    t.cols <- grown t.cols j unset_col;
    t.cols.(j) <- k

  let set_row t (r : Lp.Model.row) k =
    check_open t;
    let i = (r :> int) in
    t.rows <- grown t.rows i unset_row;
    t.rows.(i) <- k

  (* [n] keys from [a], the unregistered ones keyed by [anon]. The array
     itself when it has exactly [n] entries, the common case; otherwise a
     new one, made from the static [unset] (making a large array from a
     freshly allocated key would first force a minor collection). *)
  let frozen_keys a n unset anon =
    let keys =
      if Array.length a = n then a
      else begin
        let keys = Array.make n unset in
        Array.blit a 0 keys 0 (min n (Array.length a));
        keys
      end
    in
    for j = 0 to n - 1 do
      if keys.(j) == unset then keys.(j) <- anon j
    done;
    keys

  let keymap t ~model =
    let cols =
      frozen_keys t.cols (Lp.Model.num_vars model) unset_col (fun j ->
          Anon_col j)
    in
    let rows =
      frozen_keys t.rows (Lp.Model.num_rows model) unset_row (fun i ->
          Anon_row i)
    in
    t.taken <- true;
    ({ cols; rows } : keymap)
end

(* Keys are hashed and compared by monomorphic functions: the generic
   hash walks each variant block through the runtime, and the generic
   equality dispatches on tags at run time. The hash mixes every field
   into all bits, so large file ids and slot numbers neither alias nor
   overflow into anything but ordinary wrap-around. *)
let mix h x =
  let h = (h lxor x) * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land max_int

module Col_tbl = Hashtbl.Make (struct
  type t = col_key

  let equal (a : t) (b : t) =
    match (a, b) with
    | Flow_tx a, Flow_tx b ->
        a.file = b.file && a.link = b.link && a.slot = b.slot
    | Flow_store a, Flow_store b ->
        a.file = b.file && a.node = b.node && a.slot = b.slot
    | Charge a, Charge b -> a.link = b.link
    | Supply a, Supply b -> a.file = b.file
    | Anon_col a, Anon_col b -> a = b
    | (Flow_tx _ | Flow_store _ | Charge _ | Supply _ | Anon_col _), _ -> false

  let hash = function
    | Flow_tx { file; link; slot } -> mix (mix (mix 1 file) link) slot
    | Flow_store { file; node; slot } -> mix (mix (mix 2 file) node) slot
    | Charge { link } -> mix 3 link
    | Supply { file } -> mix 4 file
    | Anon_col j -> mix 5 j
end)

module Row_tbl = Hashtbl.Make (struct
  type t = row_key

  let equal (a : t) (b : t) =
    match (a, b) with
    | Conservation a, Conservation b ->
        a.file = b.file && a.node = b.node && a.slot = b.slot
    | Capacity a, Capacity b -> a.link = b.link && a.slot = b.slot
    | Charge_dom a, Charge_dom b -> a.link = b.link && a.slot = b.slot
    | Anon_row a, Anon_row b -> a = b
    | (Conservation _ | Capacity _ | Charge_dom _ | Anon_row _), _ -> false

  let hash = function
    | Conservation { file; node; slot } -> mix (mix (mix 1 file) node) slot
    | Capacity { link; slot } -> mix (mix 2 link) slot
    | Charge_dom { link; slot } -> mix (mix 3 link) slot
    | Anon_row i -> mix 4 i
end)

type t = {
  col_status : Status.Basis.var_status Col_tbl.t;
  row_status : Status.Basis.var_status Row_tbl.t;
}

let capture keymap (basis : Status.Basis.t) =
  if
    Status.Basis.num_cols basis <> Array.length keymap.cols
    || Status.Basis.num_rows basis <> Array.length keymap.rows
  then invalid_arg "Basis_map.capture: keymap/basis size mismatch";
  let col_status = Col_tbl.create (Array.length keymap.cols) in
  Array.iteri
    (fun j k -> Col_tbl.replace col_status k (Status.Basis.col_status basis j))
    keymap.cols;
  let row_status = Row_tbl.create (Array.length keymap.rows) in
  Array.iteri
    (fun i k -> Row_tbl.replace row_status k (Status.Basis.row_status basis i))
    keymap.rows;
  { col_status; row_status }

(* Defaults for keys the snapshot has never seen. A brand-new column starts
   nonbasic at its bound (the cold-start choice); a brand-new row starts
   with its slack basic, i.e. the row inactive — for the capacity and
   dominance rows of fresh files that is almost always the optimal status,
   and for the equality rows the warm-start repair in the solver demotes
   the fixed slack and re-covers the row with an artificial, which is
   exactly the cold treatment of that row. *)
let apply t keymap =
  let cols =
    Array.map
      (fun k ->
        match Col_tbl.find_opt t.col_status k with
        | Some s -> s
        | None -> Status.Basis.At_lower)
      keymap.cols
  in
  let rows =
    Array.map
      (fun k ->
        match Row_tbl.find_opt t.row_status k with
        | Some s -> s
        | None -> Status.Basis.Basic)
      keymap.rows
  in
  Status.Basis.make ~cols ~rows

let hit_rate t keymap =
  let hits = ref 0 in
  Array.iter
    (fun k -> if Col_tbl.mem t.col_status k then incr hits)
    keymap.cols;
  Array.iter
    (fun k -> if Row_tbl.mem t.row_status k then incr hits)
    keymap.rows;
  let total = Array.length keymap.cols + Array.length keymap.rows in
  if total = 0 then 1. else float_of_int !hits /. float_of_int total
