type var = int
type row = int

type sense = Le | Ge | Eq

type objective_sense = Minimize | Maximize

(* Rows are stored row by row in flat arrays (compressed sparse row):
   row [r]'s terms are [term_var.(k), term_coef.(k)] for
   [row_start.(r) <= k < row_start.(r + 1)], deduplicated and ascending by
   variable. Terms from [row_start.(n_rows)] to [n_terms] are staged for
   the next row. *)
type t = {
  m_name : string;
  m_sense : objective_sense;
  mutable vars_name : string array;  (* empty until a variable is named *)
  mutable vars_lb : float array;
  mutable vars_ub : float array;
  mutable vars_obj : float array;
  mutable n_vars : int;
  mutable row_start : int array;  (* n_rows + 1 entries in use *)
  mutable rows_name : string array;  (* empty until a row is named *)
  mutable rows_sense : sense array;
  mutable rows_rhs : float array;
  mutable n_rows : int;
  mutable term_var : int array;
  mutable term_coef : float array;
  mutable n_terms : int;
}

let create ?(name = "lp") sense =
  { m_name = name; m_sense = sense;
    vars_name = [||];
    vars_lb = Array.make 16 0.;
    vars_ub = Array.make 16 0.;
    vars_obj = Array.make 16 0.;
    n_vars = 0;
    row_start = Array.make 17 0;
    rows_name = [||];
    rows_sense = Array.make 16 Eq;
    rows_rhs = Array.make 16 0.;
    n_rows = 0;
    term_var = Array.make 64 0;
    term_coef = Array.make 64 0.;
    n_terms = 0 }

let name t = t.m_name
let objective_sense t = t.m_sense

(* Copy of [a]'s first [len] entries into a fresh array of [cap]. *)
let resized a len cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 len;
  a'

(* Names are stored only once one is given: [names] with [name] at [id],
   grown to cover [id], the empty string marking the unnamed. *)
let named names id name =
  let names =
    if id < Array.length names then names
    else resized names (Array.length names) (max 16 (2 * id)) ""
  in
  names.(id) <- name;
  names

let resize_vars t cap =
  let n = t.n_vars in
  t.vars_lb <- resized t.vars_lb n cap 0.;
  t.vars_ub <- resized t.vars_ub n cap 0.;
  t.vars_obj <- resized t.vars_obj n cap 0.

let resize_rows t cap =
  let n = t.n_rows in
  t.rows_sense <- resized t.rows_sense n cap Eq;
  t.rows_rhs <- resized t.rows_rhs n cap 0.;
  t.row_start <- resized t.row_start (n + 1) (cap + 1) 0

let resize_terms t cap =
  t.term_var <- resized t.term_var t.n_terms cap 0;
  t.term_coef <- resized t.term_coef t.n_terms cap 0.

let reserve t ~vars ~rows ~terms =
  if t.n_vars + vars > Array.length t.vars_lb then
    resize_vars t (t.n_vars + vars);
  if t.n_rows + rows > Array.length t.rows_rhs then
    resize_rows t (t.n_rows + rows);
  if t.n_terms + terms > Array.length t.term_var then
    resize_terms t (t.n_terms + terms)

let grow_vars t =
  if t.n_vars = Array.length t.vars_lb then resize_vars t (max 16 (2 * t.n_vars))

let add_var t ?name ?(lb = 0.) ?(ub = infinity) ?(obj = 0.) () =
  if Float.is_nan lb || Float.is_nan ub then
    invalid_arg "Model.add_var: NaN bound";
  if lb > ub then invalid_arg "Model.add_var: lb > ub";
  grow_vars t;
  let id = t.n_vars in
  (* Names are lazy: the empty string marks "unset" and [var_name]
     synthesizes ["x<id>"] on demand. At bench scale the eager sprintf per
     variable was pure allocation overhead. *)
  (match name with Some n -> t.vars_name <- named t.vars_name id n | None -> ());
  t.vars_lb.(id) <- lb;
  t.vars_ub.(id) <- ub;
  t.vars_obj.(id) <- obj;
  t.n_vars <- id + 1;
  id

let add_vars t k ?lb ?ub ?obj () =
  Array.init k (fun _ -> add_var t ?lb ?ub ?obj ())

let check_var t v =
  if v < 0 || v >= t.n_vars then invalid_arg "Model: unknown variable"

let check_row t r =
  if r < 0 || r >= t.n_rows then invalid_arg "Model: unknown row"

let set_obj t v c =
  check_var t v;
  t.vars_obj.(v) <- c

let add_obj t v c =
  check_var t v;
  t.vars_obj.(v) <- t.vars_obj.(v) +. c

let stage_term t v c =
  check_var t v;
  let k = t.n_terms in
  if k = Array.length t.term_var then resize_terms t (max 64 (2 * k));
  t.term_var.(k) <- v;
  t.term_coef.(k) <- c;
  t.n_terms <- k + 1

(* Stable sort of the terms in [lo, hi) by variable, through a stably
   sorted permutation. Rows that arrive sorted, as the formulations stage
   them, cost one scan. *)
let sort_terms t lo hi =
  let vars = t.term_var and coefs = t.term_coef in
  let sorted = ref true in
  for k = lo + 1 to hi - 1 do
    if vars.(k - 1) > vars.(k) then sorted := false
  done;
  if not !sorted then begin
    let perm = Array.init (hi - lo) (fun k -> lo + k) in
    Array.stable_sort (fun a b -> Int.compare vars.(a) vars.(b)) perm;
    let v' = Array.map (fun k -> vars.(k)) perm
    and c' = Array.map (fun k -> coefs.(k)) perm in
    Array.blit v' 0 vars lo (hi - lo);
    Array.blit c' 0 coefs lo (hi - lo)
  end

(* Merge the sorted terms in [lo, hi) in place: the coefficients of one
   variable are summed left to right, and a sum that is zero is dropped.
   Returns the end of the merged terms. *)
let merge_terms t lo hi =
  let vars = t.term_var and coefs = t.term_coef in
  let w = ref lo and k = ref lo in
  while !k < hi do
    let v = vars.(!k) in
    let acc = ref coefs.(!k) in
    incr k;
    while !k < hi && vars.(!k) = v do
      acc := !acc +. coefs.(!k);
      incr k
    done;
    if !acc <> 0. then begin
      vars.(!w) <- v;
      coefs.(!w) <- !acc;
      incr w
    end
  done;
  !w

let grow_rows t =
  if t.n_rows = Array.length t.rows_rhs then resize_rows t (max 16 (2 * t.n_rows))

let add_constraint t ?name terms sense rhs =
  List.iter (fun (v, _) -> check_var t v) terms;
  List.iter (fun (v, c) -> stage_term t v c) terms;
  grow_rows t;
  let id = t.n_rows in
  let lo = t.row_start.(id) in
  sort_terms t lo t.n_terms;
  let hi = merge_terms t lo t.n_terms in
  (match name with Some n -> t.rows_name <- named t.rows_name id n | None -> ());
  t.rows_sense.(id) <- sense;
  t.rows_rhs.(id) <- rhs;
  t.row_start.(id + 1) <- hi;
  t.n_terms <- hi;
  t.n_rows <- id + 1;
  id

let num_vars t = t.n_vars
let num_rows t = t.n_rows

let var_of_index t i =
  check_var t i;
  i

let row_of_index t i =
  check_row t i;
  i

let var_name t v =
  check_var t v;
  let n = if v < Array.length t.vars_name then t.vars_name.(v) else "" in
  if n = "" then Printf.sprintf "x%d" v else n

let row_name t r =
  check_row t r;
  let n = if r < Array.length t.rows_name then t.rows_name.(r) else "" in
  if n = "" then Printf.sprintf "r%d" r else n
let lower_bound t v = check_var t v; t.vars_lb.(v)
let upper_bound t v = check_var t v; t.vars_ub.(v)
let obj_coeff t v = check_var t v; t.vars_obj.(v)

(* The terms of row [r] as a list, ascending by variable. *)
let terms_list t r =
  let acc = ref [] in
  for k = t.row_start.(r + 1) - 1 downto t.row_start.(r) do
    acc := (t.term_var.(k), t.term_coef.(k)) :: !acc
  done;
  !acc

let row_terms t r = check_row t r; terms_list t r
let row_sense t r = check_row t r; t.rows_sense.(r)
let row_rhs t r = check_row t r; t.rows_rhs.(r)

let iter_rows t f =
  for r = 0 to t.n_rows - 1 do
    f r (terms_list t r) t.rows_sense.(r) t.rows_rhs.(r)
  done

let num_terms t = t.row_start.(t.n_rows)

let blit_vars t ~lb ~ub ~obj =
  let n = t.n_vars in
  if Array.length lb < n || Array.length ub < n || Array.length obj < n then
    invalid_arg "Model.blit_vars: array too short";
  Array.blit t.vars_lb 0 lb 0 n;
  Array.blit t.vars_ub 0 ub 0 n;
  Array.blit t.vars_obj 0 obj 0 n

let blit_rhs t rhs =
  if Array.length rhs < t.n_rows then invalid_arg "Model.blit_rhs: array too short";
  Array.blit t.rows_rhs 0 rhs 0 t.n_rows

(* One counting pass from the rows into compressed columns. The stored
   terms are deduplicated with no zero coefficient, so every (row, column)
   entry is distinct; visiting the rows in ascending order leaves every
   column sorted by row. No cursor array is allocated: while the entries
   are placed, [colptr.(j + 1)] is column [j]'s next free slot, and it
   ends at column [j]'s end, which is where column [j + 1] starts. *)
let write_columns t ~colptr ~rowind ~values =
  let n = t.n_vars and m = t.n_rows in
  let nz = num_terms t in
  if Array.length colptr < n + 1 || Array.length rowind < nz
     || Array.length values < nz
  then invalid_arg "Model.write_columns: array too short";
  (* Column j's count goes to colptr.(j + 2), so that after the prefix
     sums colptr.(j + 1) is column j's start. *)
  Array.fill colptr 0 (n + 1) 0;
  for k = 0 to nz - 1 do
    let j = t.term_var.(k) in
    if j + 2 <= n then colptr.(j + 2) <- colptr.(j + 2) + 1
  done;
  for j = 2 to n do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  for r = 0 to m - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      let j = t.term_var.(k) in
      let p = colptr.(j + 1) in
      rowind.(p) <- r;
      values.(p) <- t.term_coef.(k);
      colptr.(j + 1) <- p + 1
    done
  done

let objective_value t x =
  if Array.length x <> t.n_vars then
    invalid_arg "Model.objective_value: assignment size mismatch";
  let acc = ref 0. in
  for v = 0 to t.n_vars - 1 do
    acc := !acc +. (t.vars_obj.(v) *. x.(v))
  done;
  !acc

let constraint_violation t x =
  if Array.length x <> t.n_vars then
    invalid_arg "Model.constraint_violation: assignment size mismatch";
  let worst = ref 0. in
  for v = 0 to t.n_vars - 1 do
    if x.(v) < t.vars_lb.(v) then worst := max !worst (t.vars_lb.(v) -. x.(v));
    if x.(v) > t.vars_ub.(v) then worst := max !worst (x.(v) -. t.vars_ub.(v))
  done;
  for r = 0 to t.n_rows - 1 do
    let lhs = ref 0. in
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      lhs := !lhs +. (t.term_coef.(k) *. x.(t.term_var.(k)))
    done;
    let rhs = t.rows_rhs.(r) in
    let viol =
      match t.rows_sense.(r) with
      | Le -> !lhs -. rhs
      | Ge -> rhs -. !lhs
      | Eq -> abs_float (!lhs -. rhs)
    in
    if viol > !worst then worst := viol
  done;
  !worst

let pp_sense ppf = function
  | Le -> Format.pp_print_string ppf "<="
  | Ge -> Format.pp_print_string ppf ">="
  | Eq -> Format.pp_print_string ppf "="

let pp ppf t =
  let dir = match t.m_sense with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf ppf "@[<v>%s: %s" t.m_name dir;
  for v = 0 to t.n_vars - 1 do
    if t.vars_obj.(v) <> 0. then
      Format.fprintf ppf " %+g %s" t.vars_obj.(v) (var_name t v)
  done;
  Format.fprintf ppf "@,subject to:";
  iter_rows t (fun r terms sense rhs ->
      Format.fprintf ppf "@,  %s:" (row_name t r);
      List.iter
        (fun (v, c) -> Format.fprintf ppf " %+g %s" c (var_name t v))
        terms;
      Format.fprintf ppf " %a %g" pp_sense sense rhs);
  Format.fprintf ppf "@,bounds:";
  for v = 0 to t.n_vars - 1 do
    Format.fprintf ppf "@,  %g <= %s <= %g" t.vars_lb.(v) (var_name t v)
      t.vars_ub.(v)
  done;
  Format.fprintf ppf "@]"
