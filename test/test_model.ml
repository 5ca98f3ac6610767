module Model = Lp.Model

let test_defaults () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  Alcotest.(check (float 0.)) "lb" 0. (Model.lower_bound m x);
  Alcotest.(check bool) "ub" true (Model.upper_bound m x = infinity);
  Alcotest.(check (float 0.)) "obj" 0. (Model.obj_coeff m x)

let test_names () =
  let m = Model.create ~name:"test" Model.Maximize in
  let x = Model.add_var m ~name:"flow" () in
  let r = Model.add_constraint m ~name:"cap" [ (x, 1.) ] Model.Le 5. in
  Alcotest.(check string) "model name" "test" (Model.name m);
  Alcotest.(check string) "var name" "flow" (Model.var_name m x);
  Alcotest.(check string) "row name" "cap" (Model.row_name m r)

let test_synthesized_names () =
  (* Names are lazy: omitting [name] stores nothing and the accessors
     synthesize positional names on demand. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m ~name:"real" () in
  let z = Model.add_var m () in
  let r0 = Model.add_constraint m [ (x, 1.) ] Model.Le 1. in
  let r1 = Model.add_constraint m ~name:"cap" [ (y, 1.) ] Model.Le 1. in
  Alcotest.(check string) "x0" "x0" (Model.var_name m x);
  Alcotest.(check string) "named kept" "real" (Model.var_name m y);
  Alcotest.(check string) "x2" "x2" (Model.var_name m z);
  Alcotest.(check string) "r0" "r0" (Model.row_name m r0);
  Alcotest.(check string) "named row kept" "cap" (Model.row_name m r1)

let test_bad_bounds () =
  let m = Model.create Model.Minimize in
  Alcotest.check_raises "lb > ub" (Invalid_argument "Model.add_var: lb > ub")
    (fun () -> ignore (Model.add_var m ~lb:2. ~ub:1. ()))

let test_dedup_terms () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m () in
  let r = Model.add_constraint m [ (x, 1.); (y, 2.); (x, 3.) ] Model.Eq 5. in
  Alcotest.(check int) "merged terms" 2 (List.length (Model.row_terms m r));
  let cx = List.assoc x (Model.row_terms m r) in
  Alcotest.(check (float 0.)) "summed coefficient" 4. cx

let test_cancelling_terms_dropped () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m () in
  let r = Model.add_constraint m [ (x, 1.); (x, -1.); (y, 1.) ] Model.Le 1. in
  Alcotest.(check int) "zero coefficient dropped" 1
    (List.length (Model.row_terms m r))

let test_objective_value () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. () in
  let _y = Model.add_var m ~obj:(-1.) () in
  Model.add_obj m x 0.5;
  Alcotest.(check (float 1e-12)) "objective" (2.5 *. 3. -. 4.)
    (Model.objective_value m [| 3.; 4. |])

let test_constraint_violation () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:0. ~ub:10. () in
  let y = Model.add_var m () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 5.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 1.);
  Alcotest.(check (float 1e-12)) "feasible" 0.
    (Model.constraint_violation m [| 2.; 3. |]);
  Alcotest.(check (float 1e-12)) "Le violated by 1" 1.
    (Model.constraint_violation m [| 3.; 3. |]);
  Alcotest.(check (float 1e-12)) "Ge violated" 1.
    (Model.constraint_violation m [| 0.; 0. |]);
  Alcotest.(check (float 1e-12)) "bound violated" 7.
    (Model.constraint_violation m [| 12.; -7. |])

let test_add_vars_bulk () =
  let m = Model.create Model.Minimize in
  let xs = Model.add_vars m 5 ~lb:1. ~ub:2. () in
  Alcotest.(check int) "count" 5 (Model.num_vars m);
  Array.iter
    (fun x -> Alcotest.(check (float 0.)) "bulk lb" 1. (Model.lower_bound m x))
    xs

let test_standard_form () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. ~lb:1. ~ub:6. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Le 10.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Eq 3.);
  let sf = Lp.Standard_form.of_model m in
  Alcotest.(check int) "struct vars" 2 sf.Lp.Standard_form.n_struct;
  Alcotest.(check int) "rows" 3 sf.Lp.Standard_form.n_rows;
  Alcotest.(check int) "total" 5 (Lp.Standard_form.total_vars sf);
  (* Maximize flips costs. *)
  Alcotest.(check (float 0.)) "flipped cost" (-3.) sf.Lp.Standard_form.cost.(0);
  (* Slack bounds encode senses. *)
  Alcotest.(check (float 0.)) "Le slack lb" 0. sf.Lp.Standard_form.lb.(2);
  Alcotest.(check bool) "Le slack ub" true (sf.Lp.Standard_form.ub.(2) = infinity);
  Alcotest.(check bool) "Ge slack lb" true
    (sf.Lp.Standard_form.lb.(3) = neg_infinity);
  Alcotest.(check (float 0.)) "Ge slack ub" 0. sf.Lp.Standard_form.ub.(3);
  Alcotest.(check (float 0.)) "Eq slack fixed lb" 0. sf.Lp.Standard_form.lb.(4);
  Alcotest.(check (float 0.)) "Eq slack fixed ub" 0. sf.Lp.Standard_form.ub.(4)

(* Reference semantics of a row: a stable sort by variable, each
   variable's coefficients summed left to right, zero sums dropped. *)
let dedup_reference terms =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) terms in
  let rec merge = function
    | [] -> []
    | [ t ] -> [ t ]
    | (v1, c1) :: (v2, c2) :: rest when v1 = v2 ->
        merge ((v1, c1 +. c2) :: rest)
    | t :: rest -> t :: merge rest
  in
  List.filter (fun (_, c) -> c <> 0.) (merge sorted)

(* The standard form assembled entry by entry through the triplet builder
   from the list views: the construction the one-pass conversion must
   reproduce. *)
let reference_matrix model =
  let n = Model.num_vars model and m = Model.num_rows model in
  let b = Sparselin.Csc.builder ~nrows:m ~ncols:(n + m) in
  Model.iter_rows model (fun r terms _ _ ->
      let r = (r :> int) in
      List.iter
        (fun ((v : Model.var), c) -> Sparselin.Csc.add b ~row:r ~col:(v :> int) c)
        terms;
      Sparselin.Csc.add b ~row:r ~col:(n + r) 1.);
  Sparselin.Csc.finalize b

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_terms a b =
  List.length a = List.length b
  && List.for_all2
       (fun ((v : Model.var), c) ((w : Model.var), d) ->
         (v :> int) = (w :> int) && same_bits c d)
       a b

(* A random model: duplicate and cancelling terms, zero coefficients,
   empty rows, every row sense, either objective sense, some terms staged
   ahead of the list. Returns the model and each row's full term list in
   the order it was given. *)
let random_model seed =
  let rng = Prelude.Rng.of_int seed in
  let sense =
    if Prelude.Rng.bool rng then Model.Minimize else Model.Maximize
  in
  let model = Model.create sense in
  let n = 1 + Prelude.Rng.int rng 12 in
  let pick a = a.(Prelude.Rng.int rng (Array.length a)) in
  let bounds = [| (0., infinity); (neg_infinity, infinity); (-2., 3.);
                  (neg_infinity, 0.); (1.5, 1.5) |] in
  let vars =
    Array.init n (fun _ ->
        let lb, ub = pick bounds in
        Model.add_var model ~lb ~ub ~obj:(pick [| 0.; 1.; -2.5; 0.1; 7. |]) ())
  in
  let coefs = [| 0.; 1.; -1.; 0.5; 0.1; 0.2; -0.3; 3e-17; -0. |] in
  let rows = 1 + Prelude.Rng.int rng 15 in
  let given =
    List.init rows (fun _ ->
        let k = Prelude.Rng.int rng (if Prelude.Rng.int rng 4 = 0 then 40 else 8) in
        let terms =
          List.concat
            (List.init k (fun _ ->
                 let v = pick vars and c = pick coefs in
                 (* Sometimes a term and its negation: a cancelling pair. *)
                 if Prelude.Rng.int rng 5 = 0 then [ (v, c); (v, -.c) ]
                 else [ (v, c) ]))
        in
        let staged = Prelude.Rng.int rng (List.length terms + 1) in
        List.iteri (fun i (v, c) -> if i < staged then Model.stage_term model v c)
          terms;
        let listed = List.filteri (fun i _ -> i >= staged) terms in
        ignore
          (Model.add_constraint model listed
             (pick [| Model.Le; Model.Ge; Model.Eq |])
             (pick [| 0.; 4.; -1.5 |]));
        terms)
  in
  (model, given)

let prop_standard_form_matches_reference =
  QCheck2.Test.make ~name:"standard form and rows match the list reference"
    ~count:300 ~print:string_of_int (QCheck2.Gen.int_bound 1_000_000)
    (fun seed ->
      let model, given = random_model seed in
      let sf = Lp.Standard_form.of_model model in
      let reference = reference_matrix model in
      let a = sf.Lp.Standard_form.a in
      let columns_match = ref (Sparselin.Csc.ncols a = Sparselin.Csc.ncols reference) in
      for j = 0 to Sparselin.Csc.ncols reference - 1 do
        let entries m =
          Sparselin.Csc.fold_col m j ~init:[] ~f:(fun acc i v -> (i, v) :: acc)
        in
        let got = entries a and want = entries reference in
        if not
             (List.length got = List.length want
              && List.for_all2
                   (fun (i, v) (k, w) -> i = k && same_bits v w)
                   got want)
        then columns_match := false
      done;
      let n = Model.num_vars model and m = Model.num_rows model in
      let var j = Model.var_of_index model j in
      let flip = Model.objective_sense model = Model.Maximize in
      let want_cost =
        Array.init (n + m) (fun j ->
            if j < n then
              let c = Model.obj_coeff model (var j) in
              if flip then -.c else c
            else 0.)
      in
      let slack_bound r ~lower =
        match Model.row_sense model (Model.row_of_index model r) with
        | Model.Le -> if lower then 0. else infinity
        | Model.Ge -> if lower then neg_infinity else 0.
        | Model.Eq -> 0.
      in
      let bound ~lower j =
        if j < n then
          (if lower then Model.lower_bound else Model.upper_bound) model (var j)
        else slack_bound (j - n) ~lower
      in
      let rows_match =
        List.for_all2
          (fun r terms ->
            same_terms
              (Model.row_terms model (Model.row_of_index model r))
              (dedup_reference terms))
          (List.init m Fun.id) given
      in
      !columns_match && rows_match
      && Sparselin.Csc.nnz a = Sparselin.Csc.nnz reference
      && same_floats sf.Lp.Standard_form.b
           (Array.init m (fun r -> Model.row_rhs model (Model.row_of_index model r)))
      && same_floats sf.Lp.Standard_form.cost want_cost
      && same_floats sf.Lp.Standard_form.lb (Array.init (n + m) (bound ~lower:true))
      && same_floats sf.Lp.Standard_form.ub (Array.init (n + m) (bound ~lower:false))
      && sf.Lp.Standard_form.flip_objective = flip)

let suite =
  [ Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "synthesized lazy names" `Quick test_synthesized_names;
    Alcotest.test_case "bad bounds" `Quick test_bad_bounds;
    Alcotest.test_case "dedup terms" `Quick test_dedup_terms;
    Alcotest.test_case "cancelling terms dropped" `Quick test_cancelling_terms_dropped;
    Alcotest.test_case "objective value" `Quick test_objective_value;
    Alcotest.test_case "constraint violation" `Quick test_constraint_violation;
    Alcotest.test_case "add_vars bulk" `Quick test_add_vars_bulk;
    Alcotest.test_case "standard form" `Quick test_standard_form;
    QCheck_alcotest.to_alcotest prop_standard_form_matches_reference ]
