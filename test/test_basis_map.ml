(* Basis_map: capture and apply round-trip, carry shared keys across a
   shifted epoch, and keep keys with large file ids and slot numbers
   apart. *)

module Basis_map = Postcard.Basis_map
module Basis = Lp.Status.Basis

let statuses = [| Basis.Basic; Basis.At_lower; Basis.At_upper; Basis.Free |]

let status_name = function
  | Basis.Basic -> "basic"
  | Basis.At_lower -> "at-lower"
  | Basis.At_upper -> "at-upper"
  | Basis.Free -> "free"

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (status_name s))
    ( = )

(* The keys of one epoch's program over [files] and absolute [slots]: one
   transmission and one storage column per (file, slot), a charge column
   per link, a supply column per file, one anonymous column; conservation,
   capacity and dominance rows, one anonymous row. *)
let keymap ~files ~slots ~links =
  let cols = ref [] and rows = ref [] in
  List.iter
    (fun file ->
      List.iter
        (fun slot ->
          cols :=
            Basis_map.Flow_store { file; node = 1; slot }
            :: Basis_map.Flow_tx { file; link = 2; slot }
            :: !cols;
          rows := Basis_map.Conservation { file; node = 3; slot } :: !rows)
        slots;
      cols := Basis_map.Supply { file } :: !cols)
    files;
  List.iter
    (fun link ->
      cols := Basis_map.Charge { link } :: !cols;
      List.iter
        (fun slot ->
          rows :=
            Basis_map.Charge_dom { link; slot }
            :: Basis_map.Capacity { link; slot }
            :: !rows)
        slots)
    links;
  let cols = Array.of_list (List.rev (Basis_map.Anon_col 0 :: !cols)) in
  let rows = Array.of_list (List.rev (Basis_map.Anon_row 0 :: !rows)) in
  { Basis_map.cols; rows }

(* A basis over [km] with statuses drawn from [rng]. *)
let random_basis rng (km : Basis_map.keymap) =
  let draw _ = Prelude.Rng.choose rng statuses in
  Basis.make
    ~cols:(Array.map draw km.Basis_map.cols)
    ~rows:(Array.map draw km.Basis_map.rows)

let check_same_basis what a b =
  Alcotest.(check int) (what ^ ": columns") (Basis.num_cols a) (Basis.num_cols b);
  Alcotest.(check int) (what ^ ": rows") (Basis.num_rows a) (Basis.num_rows b);
  for j = 0 to Basis.num_cols a - 1 do
    Alcotest.check status (Printf.sprintf "%s: column %d" what j)
      (Basis.col_status a j) (Basis.col_status b j)
  done;
  for i = 0 to Basis.num_rows a - 1 do
    Alcotest.check status (Printf.sprintf "%s: row %d" what i)
      (Basis.row_status a i) (Basis.row_status b i)
  done

let test_round_trip () =
  let rng = Prelude.Rng.of_int 3 in
  let km = keymap ~files:[ 0; 1; 7 ] ~slots:[ 10; 11; 12 ] ~links:[ 0; 1 ] in
  let basis = random_basis rng km in
  let snapshot = Basis_map.capture km basis in
  check_same_basis "round trip" basis (Basis_map.apply snapshot km);
  Alcotest.(check (float 0.)) "every key found" 1.
    (Basis_map.hit_rate snapshot km)

(* Index of [key] in [keys], if any. *)
let index_of keys key =
  let found = ref None in
  Array.iteri (fun i k -> if k = key && !found = None then found := Some i) keys;
  !found

(* One epoch later: file 0 has left, file 9 arrived, the slots moved by
   one. Keys both epochs have keep their status; the others get the
   documented defaults, at-lower columns and basic rows. *)
let test_shifted_epoch () =
  let rng = Prelude.Rng.of_int 4 in
  let before = keymap ~files:[ 0; 1; 7 ] ~slots:[ 10; 11; 12 ] ~links:[ 0; 1 ] in
  let after = keymap ~files:[ 1; 7; 9 ] ~slots:[ 11; 12; 13 ] ~links:[ 0; 1 ] in
  let basis = random_basis rng before in
  let moved = Basis_map.apply (Basis_map.capture before basis) after in
  let shared = ref 0 in
  Array.iteri
    (fun j key ->
      let want =
        match index_of before.Basis_map.cols key with
        | Some i -> incr shared; Basis.col_status basis i
        | None -> Basis.At_lower
      in
      Alcotest.check status (Printf.sprintf "column %d" j) want
        (Basis.col_status moved j))
    after.Basis_map.cols;
  Array.iteri
    (fun i key ->
      let want =
        match index_of before.Basis_map.rows key with
        | Some k -> incr shared; Basis.row_status basis k
        | None -> Basis.Basic
      in
      Alcotest.check status (Printf.sprintf "row %d" i) want
        (Basis.row_status moved i))
    after.Basis_map.rows;
  let total =
    Array.length after.Basis_map.cols + Array.length after.Basis_map.rows
  in
  Alcotest.(check bool) "some keys shared, some new" true
    (!shared > 0 && !shared < total);
  Alcotest.(check (float 1e-15)) "hit rate is the shared fraction"
    (float_of_int !shared /. float_of_int total)
    (Basis_map.hit_rate (Basis_map.capture before basis) after)

(* Long serve sessions number files and slots past 2^31. Keys that differ
   only in such fields, or only in a high bit, must stay apart. *)
let test_large_ids () =
  let big = 1 lsl 31 in
  let files = [ big; big + 1; big lsl 1; (big lsl 1) + 1; max_int; 1 ] in
  let slots = [ big; big + 1; 1 lsl 40; (1 lsl 40) + big; max_int - 1 ] in
  let km = keymap ~files ~slots ~links:[ 0; big; max_int ] in
  (* Every key is distinct, so a round trip that kept each status shows
     that none aliased another. Statuses vary enough to tell. *)
  let rng = Prelude.Rng.of_int 5 in
  let basis = random_basis rng km in
  let snapshot = Basis_map.capture km basis in
  check_same_basis "large ids" basis (Basis_map.apply snapshot km);
  let small = keymap ~files:[ 0; 1 ] ~slots:[ 0; 1 ] ~links:[ 0; 1 ] in
  let hits = Basis_map.hit_rate snapshot small in
  (* Only the anonymous keys, the link-0 charge column and the file-1
     supply column coincide: an id past 2^31 never stands in for a small
     one. *)
  let matched =
    Array.fold_left
      (fun acc k -> if index_of km.Basis_map.cols k <> None then acc + 1 else acc)
      0 small.Basis_map.cols
    + Array.fold_left
        (fun acc k -> if index_of km.Basis_map.rows k <> None then acc + 1 else acc)
        0 small.Basis_map.rows
  in
  Alcotest.(check int) "shared keys" 4 matched;
  Alcotest.(check (float 1e-15)) "hit rate"
    (4. /. float_of_int
             (Array.length small.Basis_map.cols + Array.length small.Basis_map.rows))
    hits

(* The keymap shares the registry's arrays: unregistered indices are keyed
   anonymously, and a registration after the keymap is refused instead of
   changing a keymap already handed out. *)
let test_registry_keymap_last () =
  let model = Lp.Model.create Lp.Model.Minimize in
  let v0 = Lp.Model.add_var model () and v1 = Lp.Model.add_var model () in
  let r0 = Lp.Model.add_constraint model [ (v0, 1.); (v1, 1.) ] Lp.Model.Le 1. in
  let reg = Basis_map.Registry.create ~cols:2 ~rows:1 in
  Basis_map.Registry.set_col reg v1 (Basis_map.Charge { link = 4 });
  let km = Basis_map.Registry.keymap reg ~model in
  Alcotest.(check bool) "registered column" true
    (km.Basis_map.cols.(1) = Basis_map.Charge { link = 4 });
  Alcotest.(check bool) "unregistered column" true
    (km.Basis_map.cols.(0) = Basis_map.Anon_col 0);
  Alcotest.(check bool) "unregistered row" true
    (km.Basis_map.rows.(0) = Basis_map.Anon_row 0);
  Alcotest.check_raises "late column"
    (Invalid_argument "Basis_map.Registry: keymap already taken") (fun () ->
      Basis_map.Registry.set_col reg v0 (Basis_map.Charge { link = 5 }));
  Alcotest.check_raises "late row"
    (Invalid_argument "Basis_map.Registry: keymap already taken") (fun () ->
      Basis_map.Registry.set_row reg r0 (Basis_map.Capacity { link = 0; slot = 0 }));
  Alcotest.(check bool) "keymap unchanged" true
    (km.Basis_map.cols.(0) = Basis_map.Anon_col 0)

let suite =
  [ Alcotest.test_case "capture then apply round-trips" `Quick test_round_trip;
    Alcotest.test_case "shifted epoch keeps shared keys" `Quick
      test_shifted_epoch;
    Alcotest.test_case "ids and slots past 2^31" `Quick test_large_ids;
    Alcotest.test_case "registry keymap comes last" `Quick
      test_registry_keymap_last ]
