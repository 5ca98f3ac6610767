module Csc = Sparselin.Csc

let feq = Alcotest.(check (float 1e-12))

let sample () =
  (* [ 1 0 2 ]
     [ 0 3 0 ]
     [ 4 0 5 ] *)
  let b = Csc.builder ~nrows:3 ~ncols:3 in
  Csc.add b ~row:0 ~col:0 1.;
  Csc.add b ~row:2 ~col:0 4.;
  Csc.add b ~row:1 ~col:1 3.;
  Csc.add b ~row:0 ~col:2 2.;
  Csc.add b ~row:2 ~col:2 5.;
  Csc.finalize b

let test_dims () =
  let m = sample () in
  Alcotest.(check int) "nrows" 3 (Csc.nrows m);
  Alcotest.(check int) "ncols" 3 (Csc.ncols m);
  Alcotest.(check int) "nnz" 5 (Csc.nnz m)

let test_get () =
  let m = sample () in
  feq "(0,0)" 1. (Csc.get m 0 0);
  feq "(2,0)" 4. (Csc.get m 2 0);
  feq "(1,1)" 3. (Csc.get m 1 1);
  feq "(0,2)" 2. (Csc.get m 0 2);
  feq "(2,2)" 5. (Csc.get m 2 2);
  feq "(1,0) zero" 0. (Csc.get m 1 0);
  feq "(0,1) zero" 0. (Csc.get m 0 1)

let test_duplicates_summed () =
  let b = Csc.builder ~nrows:2 ~ncols:2 in
  Csc.add b ~row:0 ~col:0 1.;
  Csc.add b ~row:0 ~col:0 2.;
  Csc.add b ~row:1 ~col:1 5.;
  Csc.add b ~row:1 ~col:1 (-5.);
  let m = Csc.finalize b in
  feq "summed" 3. (Csc.get m 0 0);
  Alcotest.(check int) "cancelled entry dropped" 1 (Csc.nnz m)

let test_column_sorted () =
  let b = Csc.builder ~nrows:4 ~ncols:1 in
  Csc.add b ~row:3 ~col:0 3.;
  Csc.add b ~row:1 ~col:0 1.;
  Csc.add b ~row:2 ~col:0 2.;
  let m = Csc.finalize b in
  let col = Csc.column m 0 in
  Alcotest.(check (list (pair int (float 0.)))) "sorted rows"
    [ (1, 1.); (2, 2.); (3, 3.) ]
    (Array.to_list col)

let test_matvec () =
  let m = sample () in
  Alcotest.(check (array (float 1e-12))) "A x"
    [| 1. +. 6.; 6.; 4. +. 15. |]
    (Csc.matvec m [| 1.; 2.; 3. |])

let test_matvec_t () =
  let m = sample () in
  Alcotest.(check (array (float 1e-12))) "A^T y"
    [| 1. +. 12.; 6.; 2. +. 15. |]
    (Csc.matvec_t m [| 1.; 2.; 3. |])

let test_dense_roundtrip () =
  let m = sample () in
  let d = Csc.to_dense m in
  let m' = Csc.of_dense d in
  Alcotest.(check int) "same nnz" (Csc.nnz m) (Csc.nnz m');
  for i = 0 to 2 do
    for j = 0 to 2 do
      feq (Printf.sprintf "(%d,%d)" i j) (Csc.get m i j) (Csc.get m' i j)
    done
  done

let test_select_columns () =
  let m = sample () in
  let s = Csc.select_columns m [| 2; 0 |] in
  feq "col0 from col2" 2. (Csc.get s 0 0);
  feq "col1 from col0" 1. (Csc.get s 0 1);
  feq "col0 row2" 5. (Csc.get s 2 0)

let test_empty () =
  let b = Csc.builder ~nrows:0 ~ncols:0 in
  let m = Csc.finalize b in
  Alcotest.(check int) "empty nnz" 0 (Csc.nnz m)

let test_out_of_range () =
  let b = Csc.builder ~nrows:2 ~ncols:2 in
  Alcotest.check_raises "bad row" (Invalid_argument "Csc.add: row out of range")
    (fun () -> Csc.add b ~row:2 ~col:0 1.);
  Alcotest.check_raises "bad col" (Invalid_argument "Csc.add: col out of range")
    (fun () -> Csc.add b ~row:0 ~col:(-1) 1.)

let prop_matvec_matches_dense =
  QCheck2.Test.make ~name:"csc matvec matches dense reference" ~count:100
    QCheck2.Gen.(
      let* nrows = int_range 1 8 in
      let* ncols = int_range 1 8 in
      let* entries =
        list_size (int_range 0 30)
          (triple (int_range 0 (nrows - 1)) (int_range 0 (ncols - 1))
             (float_range (-10.) 10.))
      in
      let* x = array_size (return ncols) (float_range (-5.) 5.) in
      return (nrows, ncols, entries, x))
    (fun (nrows, ncols, entries, x) ->
      let b = Csc.builder ~nrows ~ncols in
      List.iter (fun (r, c, v) -> Csc.add b ~row:r ~col:c v) entries;
      let m = Csc.finalize b in
      let d = Csc.to_dense m in
      let expected =
        Array.init nrows (fun i ->
            let acc = ref 0. in
            for j = 0 to ncols - 1 do
              acc := !acc +. (d.(i).(j) *. x.(j))
            done;
            !acc)
      in
      let got = Csc.matvec m x in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) expected got)

let test_transpose () =
  let m = sample () in
  (* A 2x3 matrix, so a transpose that swapped nothing shows. *)
  let b = Csc.builder ~nrows:2 ~ncols:3 in
  Csc.add b ~row:0 ~col:2 7.;
  Csc.add b ~row:1 ~col:0 (-1.);
  Csc.add b ~row:0 ~col:0 6.;
  let wide = Csc.finalize b in
  let t = Csc.transpose wide in
  Alcotest.(check int) "rows" 3 (Csc.nrows t);
  Alcotest.(check int) "cols" 2 (Csc.ncols t);
  Alcotest.(check (array (array (float 0.))))
    "dense transpose"
    [| [| 6.; -1. |]; [| 0.; 0. |]; [| 7.; 0. |] |]
    (Csc.to_dense t);
  Alcotest.(check (array (pair int (float 0.))))
    "column 0 of the transpose is row 0, ascending" [| (0, 6.); (2, 7.) |]
    (Csc.column t 0);
  Alcotest.(check (array (array (float 0.))))
    "square sample"
    (Sparselin.Dense.transpose (Csc.to_dense m))
    (Csc.to_dense (Csc.transpose m));
  let empty = Csc.transpose (Csc.finalize (Csc.builder ~nrows:0 ~ncols:4)) in
  Alcotest.(check (pair int int)) "empty dims" (4, 0)
    (Csc.nrows empty, Csc.ncols empty)

(* Random sparse matrices with exact zeros (and negative zeros) in the
   dense vectors, so the row-wise kernel has rows to skip. *)
let gen_sparse =
  QCheck2.Gen.(
    let* nrows = int_range 0 12 in
    let* ncols = int_range 0 12 in
    let* entries =
      if nrows = 0 || ncols = 0 then return []
      else
        list_size (int_range 0 60)
          (triple (int_range 0 (nrows - 1)) (int_range 0 (ncols - 1))
             (float_range (-10.) 10.))
    in
    let* v =
      array_size (return nrows)
        (frequency
           [ (2, return 0.); (1, return (-0.)); (3, float_range (-5.) 5.) ])
    in
    return (nrows, ncols, entries, v))

let build nrows ncols entries =
  let b = Csc.builder ~nrows ~ncols in
  List.iter (fun (r, c, v) -> Csc.add b ~row:r ~col:c v) entries;
  Csc.finalize b

let print_sparse (nrows, ncols, entries, v) =
  Printf.sprintf "%dx%d %s v=[%s]" nrows ncols
    (String.concat " "
       (List.map (fun (r, c, x) -> Printf.sprintf "(%d,%d)=%h" r c x) entries))
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") v)))

let prop_transpose =
  QCheck2.Test.make ~name:"transpose twice is the identity; rows ascend"
    ~count:200 ~print:print_sparse gen_sparse
    (fun (nrows, ncols, entries, _) ->
      let m = build nrows ncols entries in
      let t = Csc.transpose m in
      let ascending j =
        let col = Csc.column t j in
        let ok = ref true in
        Array.iteri
          (fun k (r, _) -> if k > 0 && fst col.(k - 1) >= r then ok := false)
          col;
        !ok
      in
      Csc.to_dense (Csc.transpose t) = Csc.to_dense m
      && Csc.nnz t = Csc.nnz m
      && List.for_all ascending (List.init (Csc.ncols t) Fun.id))

(* The row-wise kernel against the column-wise dot product, exactly: the
   float [=] treats [-0.] and [0.] as equal and nothing else. *)
let prop_row_combination =
  QCheck2.Test.make ~name:"row_combination equals dot_col on every column"
    ~count:300 ~print:print_sparse gen_sparse
    (fun (nrows, ncols, entries, v) ->
      let m = build nrows ncols entries in
      let at = Csc.transpose m in
      let into = Array.make ncols 0. in
      let mark = Array.make ncols false in
      let pattern = Array.make ncols (-1) in
      let len = Csc.row_combination at v ~into ~mark ~pattern in
      let in_pattern = Array.make ncols false in
      for k = 0 to len - 1 do
        in_pattern.(pattern.(k)) <- true
      done;
      let ascending = ref true in
      for k = 1 to len - 1 do
        if pattern.(k - 1) >= pattern.(k) then ascending := false
      done;
      let reached j =
        (* Column j is reached when it has an entry in a row where v is
           nonzero. *)
        Csc.fold_col m j ~init:false ~f:(fun acc r _ -> acc || v.(r) <> 0.)
      in
      !ascending
      && Array.for_all not mark
      && List.for_all
           (fun j ->
             into.(j) = Csc.dot_col m j v && in_pattern.(j) = reached j)
           (List.init ncols Fun.id))

let suite =
  [ Alcotest.test_case "dims" `Quick test_dims;
    Alcotest.test_case "get" `Quick test_get;
    Alcotest.test_case "duplicates summed" `Quick test_duplicates_summed;
    Alcotest.test_case "column sorted" `Quick test_column_sorted;
    Alcotest.test_case "matvec" `Quick test_matvec;
    Alcotest.test_case "matvec transpose" `Quick test_matvec_t;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "select columns" `Quick test_select_columns;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "transpose" `Quick test_transpose;
    QCheck_alcotest.to_alcotest prop_matvec_matches_dense;
    QCheck_alcotest.to_alcotest prop_transpose;
    QCheck_alcotest.to_alcotest prop_row_combination ]
