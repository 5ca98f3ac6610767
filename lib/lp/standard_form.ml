type t = {
  a : Sparselin.Csc.t;
  b : float array;
  cost : float array;
  lb : float array;
  ub : float array;
  n_struct : int;
  n_rows : int;
  flip_objective : bool;
}

(* [A | I]: the model's columns as [Model.write_columns] gives them, then
   one slack column per row holding the single entry (r, 1). *)
let of_model model =
  let n = Model.num_vars model and m = Model.num_rows model in
  let total = n + m in
  let flip = match Model.objective_sense model with
    | Model.Minimize -> false
    | Model.Maximize -> true
  in
  let cost = Array.make total 0. in
  let lb = Array.make total 0. and ub = Array.make total 0. in
  Model.blit_vars model ~lb ~ub ~obj:cost;
  if flip then
    for v = 0 to n - 1 do
      cost.(v) <- -.cost.(v)
    done;
  let b = Array.make m 0. in
  Model.blit_rhs model b;
  let nz_struct = Model.num_terms model in
  let colptr = Array.make (total + 1) 0 in
  let rowind = Array.make (nz_struct + m) 0
  and values = Array.make (nz_struct + m) 0. in
  Model.write_columns model ~colptr ~rowind ~values;
  for r = 0 to m - 1 do
    let slack = nz_struct + r in
    colptr.(n + r + 1) <- slack + 1;
    rowind.(slack) <- r;
    values.(slack) <- 1.;
    let j = n + r in
    match Model.row_sense model (Model.row_of_index model r) with
    | Model.Le ->
        lb.(j) <- 0.;
        ub.(j) <- infinity
    | Model.Ge ->
        lb.(j) <- neg_infinity;
        ub.(j) <- 0.
    | Model.Eq ->
        lb.(j) <- 0.;
        ub.(j) <- 0.
  done;
  { a =
      Sparselin.Csc.of_arrays ~nrows:m ~ncols:total ~colptr ~rowind ~values;
    b; cost; lb; ub;
    n_struct = n;
    n_rows = m;
    flip_objective = flip }

let total_vars t = t.n_struct + t.n_rows

let model_objective t v = if t.flip_objective then -.v else v
