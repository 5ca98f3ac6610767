module Lu = Sparselin.Lu
module Csc = Sparselin.Csc
module Dense = Sparselin.Dense

let cols_of_dense d =
  let n = Array.length d in
  fun j ->
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if d.(i).(j) <> 0. then acc := (i, d.(i).(j)) :: !acc
    done;
    Array.of_list !acc

let check_solve d b =
  let n = Array.length d in
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Error (Lu.Singular _) -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let x = Array.copy b in
      Lu.solve f x;
      (* Verify A x = b. *)
      let ax = Dense.matvec d x in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8)) (Printf.sprintf "Ax=b row %d" i) b.(i) v)
        ax;
      let y = Array.copy b in
      Lu.solve_transpose f y;
      let aty = Dense.matvec (Dense.transpose d) y in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8)) (Printf.sprintf "A'y=c row %d" i) b.(i) v)
        aty

let test_identity () = check_solve (Dense.identity 4) [| 1.; 2.; 3.; 4. |]

let test_permutation () =
  (* A permutation matrix needs pivoting bookkeeping but no arithmetic. *)
  let d = [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |] in
  check_solve d [| 3.; 1.; 2. |]

let test_dense_3x3 () =
  let d = [| [| 2.; 1.; 1. |]; [| 4.; -6.; 0. |]; [| -2.; 7.; 2. |] |] in
  check_solve d [| 5.; -2.; 9. |]

let test_requires_pivoting () =
  (* Zero in the leading position forces a row exchange. *)
  let d = [| [| 0.; 2. |]; [| 1.; 1. |] |] in
  check_solve d [| 2.; 3. |]

let test_singular_detected () =
  let d = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error (Lu.Singular _) -> ()
  | Ok _ -> Alcotest.fail "expected Singular"

let test_zero_column_singular () =
  let d = [| [| 1.; 0. |]; [| 0.; 0. |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error (Lu.Singular _) -> ()
  | Ok _ -> Alcotest.fail "expected Singular"

let test_near_triangular_sparse () =
  (* Typical simplex basis shape: identity plus a few off-diagonal spikes. *)
  let n = 50 in
  let d = Dense.identity n in
  d.(10).(3) <- 0.5;
  d.(20).(3) <- -1.5;
  d.(3).(20) <- 2.0;
  d.(45).(44) <- 1.0;
  d.(44).(45) <- -0.25;
  let b = Array.init n (fun i -> float_of_int (i mod 7) -. 3.) in
  check_solve d b

let test_min_abs_diag () =
  let d = [| [| 4.; 0. |]; [| 0.; 0.5 |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f -> Alcotest.(check (float 1e-12)) "min diag" 0.5 (Lu.min_abs_diag f)

let random_nonsingular rng n =
  (* Random sparse matrix with a dominant diagonal: always nonsingular. *)
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    d.(i).(i) <- Prelude.Rng.float_range rng 1. 5.
                 *. (if Prelude.Rng.bool rng then 1. else -1.)
  done;
  let extras = n * 2 in
  for _ = 1 to extras do
    let i = Prelude.Rng.int rng n and j = Prelude.Rng.int rng n in
    if i <> j then d.(i).(j) <- Prelude.Rng.float_range rng (-0.9) 0.9
  done;
  d

let test_random_sparse_solves () =
  let rng = Prelude.Rng.of_int 2024 in
  for trial = 1 to 25 do
    let n = 5 + Prelude.Rng.int rng 40 in
    let d = random_nonsingular rng n in
    let b = Array.init n (fun _ -> Prelude.Rng.float_range rng (-10.) 10.) in
    (match Lu.factorize ~dim:n (cols_of_dense d) with
     | Error (Lu.Singular _) ->
         Alcotest.fail (Printf.sprintf "trial %d: unexpected singular" trial)
     | Ok f ->
         let x = Array.copy b in
         Lu.solve f x;
         let ax = Dense.matvec d x in
         Array.iteri
           (fun i v ->
             if abs_float (v -. b.(i)) > 1e-7 then
               Alcotest.fail
                 (Printf.sprintf "trial %d row %d: residual %g" trial i
                    (abs_float (v -. b.(i)))))
           ax;
         let y = Array.init n (fun _ -> Prelude.Rng.float_range rng (-1.) 1.) in
         let c = Array.copy y in
         Lu.solve_transpose f c;
         let atc = Dense.matvec (Dense.transpose d) c in
         Array.iteri
           (fun i v ->
             if abs_float (v -. y.(i)) > 1e-7 then
               Alcotest.fail
                 (Printf.sprintf "trial %d (transpose) row %d: residual %g"
                    trial i (abs_float (v -. y.(i)))))
           atc)
  done

let test_explicit_col_order () =
  let d = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  match Lu.factorize ~col_order:[| 1; 0 |] ~dim:2 (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let x = [| 4.; 7. |] in
      Lu.solve f x;
      let ax = Dense.matvec d x in
      Alcotest.(check (float 1e-10)) "row 0" 4. ax.(0);
      Alcotest.(check (float 1e-10)) "row 1" 7. ax.(1)

(* ------------------------------------------------------------------ *)
(* Properties over random sparse nonsingular matrices: a diagonally
   dominant matrix with its rows shuffled, so the factorization has real
   row pivoting to do. Half the cases pass an explicit random column
   order. *)

module Gen = QCheck2.Gen

let shuffled_nonsingular rng n =
  let d = random_nonsingular rng n in
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let k = Prelude.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(k);
    perm.(k) <- t
  done;
  Array.map (fun i -> d.(i)) perm

let random_permutation rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let k = Prelude.Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(k);
    p.(k) <- t
  done;
  p

let gen_case =
  Gen.(triple (int_range 1 60) (int_bound 1_000_000) bool)

let print_case (n, seed, ordered) =
  Printf.sprintf "n=%d seed=%d col_order=%b" n seed ordered

let factorize_case (n, seed, ordered) =
  let rng = Prelude.Rng.of_int seed in
  let d = shuffled_nonsingular rng n in
  let col_order = if ordered then Some (random_permutation rng n) else None in
  match Lu.factorize ?col_order ~dim:n (cols_of_dense d) with
  | Ok f -> (rng, d, f)
  | Error (Lu.Singular k) ->
      QCheck2.Test.fail_reportf "singular at step %d" k

let max_residual d x b =
  let r = Dense.matvec d x in
  let worst = ref 0. in
  Array.iteri (fun i v -> worst := max !worst (abs_float (v -. b.(i)))) r;
  !worst

let prop_solve_residuals =
  QCheck2.Test.make ~name:"solve and solve_transpose residuals <= 1e-9"
    ~count:200 ~print:print_case gen_case (fun case ->
      let rng, d, f = factorize_case case in
      let n = Array.length d in
      let b = Array.init n (fun _ -> Prelude.Rng.float_range rng (-10.) 10.) in
      let x = Array.copy b in
      Lu.solve f x;
      let c = Array.init n (fun _ -> Prelude.Rng.float_range rng (-10.) 10.) in
      let y = Array.copy c in
      Lu.solve_transpose f y;
      max_residual d x b <= 1e-9
      && max_residual (Dense.transpose d) y c <= 1e-9)

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun i v -> acc := !acc +. (v *. b.(i))) a;
  !acc

let prop_adjoint_identity =
  QCheck2.Test.make ~name:"adjoint identity (B^-1 u).v = u.(B^-T v)"
    ~count:200 ~print:print_case gen_case (fun case ->
      let rng, d, f = factorize_case case in
      let n = Array.length d in
      let u = Array.init n (fun _ -> Prelude.Rng.float_range rng (-1.) 1.) in
      let v = Array.init n (fun _ -> Prelude.Rng.float_range rng (-1.) 1.) in
      let bu = Array.copy u in
      Lu.solve f bu;
      let btv = Array.copy v in
      Lu.solve_transpose f btv;
      let lhs = dot bu v and rhs = dot u btv in
      abs_float (lhs -. rhs) <= 1e-9 *. (1. +. abs_float lhs))

(* Candidates mixing independent columns with exact copies and sums of
   earlier ones: the accepted set must be independent, and together with
   the unit columns of the unpivoted rows it must form a nonsingular
   basis. *)
let prop_crash_select_covers =
  QCheck2.Test.make ~name:"crash_select: independent set plus unpivoted rows"
    ~count:200 ~print:print_case gen_case (fun (n, seed, _) ->
      let rng = Prelude.Rng.of_int seed in
      let d = shuffled_nonsingular rng n in
      let col j = Array.init n (fun i -> d.(i).(j)) in
      let ncols = Prelude.Rng.int rng (2 * n) + 1 in
      let cands =
        Array.init ncols (fun _ ->
            let a = col (Prelude.Rng.int rng n) in
            match Prelude.Rng.int rng 3 with
            | 0 -> a
            | 1 ->
                let b = col (Prelude.Rng.int rng n) in
                Array.mapi (fun i v -> v +. b.(i)) a
            | _ -> Array.map (fun v -> -2. *. v) a)
      in
      let sparse c =
        let acc = ref [] in
        for i = n - 1 downto 0 do
          if c.(i) <> 0. then acc := (i, c.(i)) :: !acc
        done;
        Array.of_list !acc
      in
      let cand_cols = Array.map sparse cands in
      let accepted, unpivoted =
        Lu.crash_select ~dim:n ~ncols (fun k f ->
            Array.iter (fun (r, v) -> f r v) cand_cols.(k))
      in
      let basis =
        Array.append
          (Array.map (fun k -> cand_cols.(k)) accepted)
          (Array.map (fun r -> [| (r, 1.) |]) unpivoted)
      in
      let ascending a =
        let ok = ref true in
        Array.iteri (fun i v -> if i > 0 && a.(i - 1) >= v then ok := false) a;
        !ok
      in
      Array.length basis = n
      && ascending accepted && ascending unpivoted
      && (match Lu.factorize ~dim:n (fun j -> basis.(j)) with
          | Ok f -> Lu.min_abs_diag f > 1e-12
          | Error _ -> false))

(* The triangular solves and the eta updates run once per simplex pivot:
   they must not allocate. The bound leaves room only for the probe's own
   boxed floats. *)
let test_kernels_allocate_nothing () =
  let rng = Prelude.Rng.of_int 50 in
  let n = 50 in
  let d = shuffled_nonsingular rng n in
  let f =
    match Lu.factorize ~dim:n (cols_of_dense d) with
    | Ok f -> f
    | Error _ -> Alcotest.fail "unexpected singular"
  in
  let alpha = Array.init n (fun i -> if i mod 3 = 0 then 0. else 1. +. float_of_int i) in
  let eta = Sparselin.Eta.make ~pos:4 ~alpha in
  let v = Array.init n (fun i -> float_of_int (i mod 7) -. 3.) in
  let measure name kernel =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      kernel v
    done;
    let words = Gc.minor_words () -. before in
    if words > 16. then
      Alcotest.failf "%s allocated %.0f minor words over 1000 calls" name words
  in
  measure "Lu.solve" (Lu.solve f);
  measure "Lu.solve_transpose" (Lu.solve_transpose f);
  measure "Eta.apply_ftran" (Sparselin.Eta.apply_ftran eta);
  measure "Eta.apply_btran" (Sparselin.Eta.apply_btran eta)

(* The simplex's cold start writes the factors of its signed-identity
   basis down directly: they must solve exactly as the factorization of
   that matrix does. *)
let test_diagonal_matches_factorize () =
  let rng = Prelude.Rng.of_int 61 in
  let n = 9 in
  let d = Array.init n (fun _ -> if Prelude.Rng.bool rng then 1. else -1.) in
  let f =
    match Lu.factorize ~dim:n (fun k -> [| (k, d.(k)) |]) with
    | Ok f -> f
    | Error _ -> Alcotest.fail "unexpected singular"
  in
  let g = Lu.diagonal d in
  Alcotest.(check int) "nnz" (Lu.nnz f) (Lu.nnz g);
  Alcotest.(check int) "input nnz" (Lu.input_nnz f) (Lu.input_nnz g);
  let bits a = Array.map Int64.bits_of_float a in
  for _ = 1 to 20 do
    let b = Array.init n (fun _ -> Prelude.Rng.float_range rng (-5.) 5.) in
    let solve solver fact =
      let x = Array.copy b in
      solver fact x;
      bits x
    in
    Alcotest.(check (array int64)) "solve" (solve Lu.solve f) (solve Lu.solve g);
    Alcotest.(check (array int64)) "solve_transpose"
      (solve Lu.solve_transpose f) (solve Lu.solve_transpose g)
  done

let test_col_order_must_be_permutation () =
  Alcotest.check_raises "repeated column"
    (Invalid_argument "Lu.factorize: col_order is not a permutation")
    (fun () ->
      ignore
        (Lu.factorize ~col_order:[| 0; 0 |] ~dim:2
           (cols_of_dense [| [| 2.; 1. |]; [| 1.; 3. |] |])))

let suite =
  [ Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "dense 3x3" `Quick test_dense_3x3;
    Alcotest.test_case "requires pivoting" `Quick test_requires_pivoting;
    Alcotest.test_case "singular detected" `Quick test_singular_detected;
    Alcotest.test_case "zero column singular" `Quick test_zero_column_singular;
    Alcotest.test_case "near-triangular sparse" `Quick test_near_triangular_sparse;
    Alcotest.test_case "min abs diag" `Quick test_min_abs_diag;
    Alcotest.test_case "random sparse solves" `Quick test_random_sparse_solves;
    Alcotest.test_case "explicit column order" `Quick test_explicit_col_order;
    Alcotest.test_case "column order must be a permutation" `Quick
      test_col_order_must_be_permutation;
    Alcotest.test_case "solves and eta updates allocate nothing" `Quick
      test_kernels_allocate_nothing;
    Alcotest.test_case "diagonal factors match factorize" `Quick
      test_diagonal_matches_factorize;
    QCheck_alcotest.to_alcotest prop_solve_residuals;
    QCheck_alcotest.to_alcotest prop_adjoint_identity;
    QCheck_alcotest.to_alcotest prop_crash_select_covers ]
