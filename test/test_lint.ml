(* The per-file rules of the analysis driver: the lexer, each rule's
   scope, the suppression grammar, and the project-level checks. *)

open Alcotest
module Lexer = Concilium_analysis.Lexer
module Rules = Concilium_analysis.Rules
module Driver = Concilium_analysis.Driver
module Finding = Concilium_analysis.Finding
module Json = Concilium_util.Json

(* Fixtures are assembled from pieces so this file itself never contains a
   bannable construct (or trailing whitespace) outside a string literal. *)

let layers = "util\nbin test\n"

let analyze ?(dunes = []) files =
  (Driver.analyze_sources ~layers_path:"analysis/layers.txt" ~layers_text:layers ~dunes ~files)
    .Driver.r_findings

(* The findings reported against one fixture file. *)
let lint ?(path = "lib/fixture/fake.ml") source =
  List.filter (fun (f : Finding.t) -> f.Finding.file = path) (analyze [ (path, source) ])

let rule_ids findings =
  List.sort_uniq String.compare (List.map (fun (f : Finding.t) -> f.Finding.rule) findings)

let fired rule findings = List.mem rule (rule_ids findings)

let check_fires ?path rule source =
  check bool (Printf.sprintf "%s fires" rule) true (fired rule (lint ?path source))

let check_clean ?path rule source =
  check bool (Printf.sprintf "%s silent" rule) false (fired rule (lint ?path source))

(* ---------- Lexer ---------- *)

let test_lexer_blanks_comments_and_strings () =
  let source = "let x = 1 (* List.hd inside comment *)\nlet s = \"List.hd inside string\"\n" in
  let scrubbed = Lexer.scrub source in
  Array.iter
    (fun line ->
      check bool "no List.hd survives scrubbing" false
        (let re = Str.regexp_string "List.hd" in
         match Str.search_forward re line 0 with exception Not_found -> false | _ -> true))
    scrubbed.Lexer.code_lines;
  check int "one comment collected" 1 (List.length scrubbed.Lexer.comments)

let test_lexer_nested_comments () =
  let source = "(* outer (* inner *) still outer *)\nlet x = 1\n" in
  let scrubbed = Lexer.scrub source in
  (match scrubbed.Lexer.comments with
  | [ c ] ->
      check int "starts on line 1" 1 c.Lexer.start_line;
      check bool "nested body kept" true
        (match Str.search_forward (Str.regexp_string "inner") c.Lexer.text 0 with
        | exception Not_found -> false
        | _ -> true)
  | comments -> failf "expected one comment, got %d" (List.length comments));
  check string "code preserved" "let x = 1" (String.trim scrubbed.Lexer.code_lines.(1))

let test_lexer_char_literal_vs_type_var () =
  (* A 'a type variable must not open a character literal and swallow code. *)
  let source = "let f (x : 'a list) = x\nlet c = 'x'\nlet y = 1\n" in
  let scrubbed = Lexer.scrub source in
  check bool "type variable kept as code" true
    (String.length scrubbed.Lexer.code_lines.(0) > 10);
  check string "later lines intact" "let y = 1" (String.trim scrubbed.Lexer.code_lines.(2))

let test_lexer_quoted_string () =
  let source = "let s = {ext|Obj.magic here|ext}\nlet z = 2\n" in
  let scrubbed = Lexer.scrub source in
  check bool "quoted literal scrubbed" false
    (match Str.search_forward (Str.regexp_string "Obj.magic") scrubbed.Lexer.code_lines.(0) 0 with
    | exception Not_found -> false
    | _ -> true);
  check string "following code intact" "let z = 2" (String.trim scrubbed.Lexer.code_lines.(1))

(* Literals inside comments are themselves lexed: a string or quoted string
   containing a close-comment sequence must not terminate the comment, and
   a double-quote character literal must not open a phantom string. *)
let test_lexer_string_in_comment () =
  let source = "(* a string: " ^ "\"*)\"" ^ " still comment *)\nlet x = 1\n" in
  let scrubbed = Lexer.scrub source in
  (match scrubbed.Lexer.comments with
  | [ c ] ->
      check bool "comment spans past the quoted close" true
        (match Str.search_forward (Str.regexp_string "still comment") c.Lexer.text 0 with
        | exception Not_found -> false
        | _ -> true)
  | comments -> failf "expected one comment, got %d" (List.length comments));
  check string "code after the comment kept" "let x = 1" (String.trim scrubbed.Lexer.code_lines.(1))

let test_lexer_quoted_string_in_comment () =
  let source = "(* quoted: {q|*)|q} still comment *)\nlet y = 2\n" in
  let scrubbed = Lexer.scrub source in
  (match scrubbed.Lexer.comments with
  | [ c ] ->
      check bool "comment spans past {q|*)|q}" true
        (match Str.search_forward (Str.regexp_string "still comment") c.Lexer.text 0 with
        | exception Not_found -> false
        | _ -> true)
  | comments -> failf "expected one comment, got %d" (List.length comments));
  check string "code after the comment kept" "let y = 2" (String.trim scrubbed.Lexer.code_lines.(1))

let test_lexer_char_literal_in_comment () =
  (* '"' inside a comment must not toggle the in-string flag; if it did,
     the comment close would be swallowed and `let z = 3` lost. *)
  let source = "(* quote char: " ^ "'\"'" ^ " end *)\nlet z = 3\n" in
  let scrubbed = Lexer.scrub source in
  check int "one comment" 1 (List.length scrubbed.Lexer.comments);
  check string "code after the comment kept" "let z = 3" (String.trim scrubbed.Lexer.code_lines.(1))

let test_lexer_escaped_quote_in_string () =
  (* "\"" — the escaped quote must not close the literal early. *)
  let source = "let s = \"a\\\"b\" in List.hd s\n" in
  let scrubbed = Lexer.scrub source in
  check bool "string fully blanked including escape" false
    (match Str.search_forward (Str.regexp_string "a\\") scrubbed.Lexer.code_lines.(0) 0 with
    | exception Not_found -> false
    | _ -> true);
  check bool "code after the literal survives" true
    (match Str.search_forward (Str.regexp_string "List.hd") scrubbed.Lexer.code_lines.(0) 0 with
    | exception Not_found -> false
    | _ -> true)

(* ---------- Determinism rules ---------- *)

let test_random_rule () =
  check_fires "random" "let x = Random.int 10\n";
  check_fires "random" "let x = Stdlib.Random.bool ()\n";
  (* The PRNG module itself is the one place allowed to mention randomness. *)
  check_clean ~path:"lib/util/prng.ml" "random" "let x = Random.int 10\n";
  (* Strings and comments never trip the rule. *)
  check_clean "random" "let x = \"Random.int\"\n";
  check_clean "random" "(* Random.int *) let x = 1\n"

let test_wall_clock_rule () =
  check_fires "wall-clock" "let t = Sys.time ()\n";
  check_fires "wall-clock" "let t = Unix.gettimeofday ()\n";
  check_clean "wall-clock" "let t = Engine.now engine\n"

let test_hashtbl_hash_rule () =
  check_fires "hashtbl-hash" "let h = Hashtbl.hash x\n";
  check_fires "hashtbl-hash" "let t = Hashtbl.create ~random:true 16\n";
  check_clean "hashtbl-hash" "let t = Hashtbl.create 16\n"

let test_hashtbl_order_rule () =
  let unsorted = "let keys t =\n  Hashtbl.fold (fun k _ acc -> k :: acc) t []\n" in
  check_fires "hashtbl-order" unsorted;
  let sorted =
    "let keys t =\n  Hashtbl.fold (fun k _ acc -> k :: acc) t []\n  |> List.sort Int.compare\n"
  in
  check_clean "hashtbl-order" sorted;
  let suppressed =
    "let bump t =\n  (* analysis: allow hashtbl-order \xe2\x80\x94 order-independent *)\n  Hashtbl.iter (fun _ cell -> incr cell) t\n"
  in
  check_clean "hashtbl-order" suppressed;
  (* Only lib/ and bin/ are in scope for the ordering rule. *)
  check_clean ~path:"test/fake.ml" "hashtbl-order" unsorted

(* ---------- Polymorphic-compare rules ---------- *)

let test_poly_compare_rule () =
  check_fires "poly-compare" "let xs = List.sort compare xs\n";
  check_fires "poly-compare" ("let () = Array.sort" ^ " compare a\n");
  check_fires "poly-compare" "let xs = List.sort_uniq compare xs\n";
  check_fires "poly-compare" "let c = Stdlib.compare a b\n";
  check_fires "poly-compare" "let m = Array.fold_left min x a\n";
  check_clean "poly-compare" "let xs = List.sort Int.compare xs\n";
  check_clean "poly-compare" "let xs = List.sort Id.compare xs\n";
  check_clean "poly-compare" "let m = Array.fold_left Float.min x a\n";
  (* Direct scalar uses of min/max are fine. *)
  check_clean "poly-compare" "let m = max 0 (x - 1)\n"

let test_physical_equality_rule () =
  check_fires "physical-equality" "let same = a == b\n";
  check_fires "physical-equality" "let diff = a != b\n";
  check_clean "physical-equality" "let same = a = b\n";
  check_clean ~path:"test/fake.ml" "physical-equality" "let same = a == b\n"

(* ---------- Partiality rules ---------- *)

let test_partiality_rules () =
  check_fires "list-partial" "let x = List.hd xs\n";
  check_fires "list-partial" "let x = List.nth xs 3\n";
  check_fires "option-get" "let x = Option.get o\n";
  check_fires "obj-magic" "let x = Obj.magic y\n";
  check_fires "assert-false" "let f () = assert false\n";
  check_fires "array-get" "let x = Array.get a i\n";
  check_clean "list-partial" "let x = match xs with [] -> 0 | x :: _ -> x\n";
  (* Partiality rules stop at the library/binary boundary. *)
  check_clean ~path:"test/fake.ml" "list-partial" "let x = List.hd xs\n"

let test_suppression_scope () =
  let allow rules = "(* analysis: " ^ rules ^ " -- fixture *)\n" in
  (* An allow comment covers its own lines and the next one only. *)
  check_clean "list-partial" (allow "allow list-partial" ^ "let x = List.hd xs\n");
  check_clean "list-partial"
    ("(* analysis: allow list-partial \xe2\x80\x94 two-line\n   reason *)\nlet x = List.hd xs\n");
  check_fires "list-partial" (allow "allow list-partial" ^ "let a = 1\nlet x = List.hd xs\n");
  (* allow-file covers the whole file; [all] covers every rule. *)
  check_clean "list-partial" (allow "allow-file list-partial" ^ "let a = 1\nlet x = List.hd xs\n");
  let findings = lint (allow "allow all" ^ "let x = List.hd (List.sort compare xs)\n") in
  check int "all suppresses everything" 0 (List.length findings);
  (* A suppression for one rule does not silence another. *)
  check_fires "list-partial" (allow "allow option-get" ^ "let x = List.hd xs\n")

let test_suppression_needs_reason () =
  (* A directive without a justification suppresses nothing and is itself
     reported, for the per-file rules as for the whole-program ones. *)
  let findings = lint "(* analysis: allow list-partial *)\nlet x = List.hd xs\n" in
  check bool "list-partial still fires" true (fired "list-partial" findings);
  check bool "missing reason reported" true (fired "suppression-missing-reason" findings)

let test_raw_parallelism_rule () =
  check_fires "raw-parallelism" "let d = Domain.spawn work\n";
  check_fires "raw-parallelism" "let m = Mutex.create ()\n";
  check_fires "raw-parallelism" "let c = Condition.create ()\n";
  (* The pool is the one module allowed to build on the raw primitives. *)
  check_clean ~path:"lib/util/pool.ml" "raw-parallelism" "let d = Domain.spawn work\n";
  (* Reading domain metadata is fine; only spawning is fenced. *)
  check_clean "raw-parallelism" "let n = Domain.recommended_domain_count ()\n";
  check_clean "raw-parallelism" "let r = Pool.parallel_map ~pool xs ~f\n"

let test_stdout_printf_rule () =
  let printf_line = "let () = Printf." ^ "printf \"hi %d\" 3\n" in
  let endline_line = "let () = print_" ^ "endline \"hi\"\n" in
  let format_line = "let () = Format." ^ "printf \"hi\"\n" in
  check_fires "stdout-printf" printf_line;
  check_fires "stdout-printf" endline_line;
  check_fires "stdout-printf" format_line;
  (* Rendering to a string and deferring the write is the sanctioned shape. *)
  check_clean "stdout-printf" "let s = Printf.sprintf \"hi %d\" 3\n";
  check_clean "stdout-printf" "let () = Format.fprintf fmt \"hi\"\n";
  (* The observability exporters own their stdout; no checker library
     prints. *)
  check_clean ~path:"lib/obs/export.ml" "stdout-printf" printf_line;
  check_fires ~path:"lib/analysis/driver.ml" "stdout-printf" printf_line;
  (* Binaries are the edge where printing belongs. *)
  check_clean ~path:"bin/experiments.ml" "stdout-printf" printf_line

let test_formatting_rules () =
  check_fires "trailing-whitespace" ("let x = 1" ^ "  " ^ "\nlet y = 2\n");
  check_fires "tab-indent" ("let x =\n" ^ "\t1\n");
  check_clean "trailing-whitespace" "let x = 1\nlet y = 2\n"

(* ---------- Project-level rules ---------- *)

let test_dune_flags_rule () =
  let lint_dune text = analyze ~dunes:[ ("lib/fixture/dune", text) ] [] in
  (match lint_dune "(library\n (name fixture))\n" with
  | [ f ] ->
      check string "rule id" "dune-flags" f.Finding.rule;
      check int "points at the stanza" 1 f.Finding.line
  | fs -> failf "expected one finding, got %d" (List.length fs));
  let hardened =
    "(library\n (name fixture)\n (flags (:standard -w +a-4-9-40-41-42-44-45-70 -warn-error +a)))\n"
  in
  check int "hardened is clean" 0 (List.length (lint_dune hardened));
  check int "no stanza, no complaint" 0
    (List.length (lint_dune "(rule (alias x) (action (echo hi)))\n"))

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let test_missing_mli_detection () =
  (* Build a tiny on-disk tree: lib/covered.{ml,mli} and lib/naked.ml. *)
  let root = Filename.concat (Filename.get_temp_dir_name ()) "concilium_rules_fixture" in
  let layers_path = Filename.concat root "layers.txt" in
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib) then begin
    if not (Sys.file_exists root) then Sys.mkdir root 0o755;
    Sys.mkdir lib 0o755
  end;
  write_file (Filename.concat lib "covered.ml") "let x = 1\n";
  write_file (Filename.concat lib "covered.mli") "val x : int\n";
  write_file (Filename.concat lib "naked.ml") "let y = 2\n";
  write_file layers_path layers;
  (match Driver.analyze_tree ~layers_path ~inject:[] ~paths:[ lib ] with
  | Error message -> failf "analyze_tree: %s" message
  | Ok report -> (
      match List.filter (fun (f : Finding.t) -> f.Finding.rule = "missing-mli") report.Driver.r_findings with
      | [ f ] ->
          check bool "flags the uncovered module" true (Filename.basename f.Finding.file = "naked.ml")
      | fs -> failf "expected one missing-mli, got %d" (List.length fs)));
  Sys.remove layers_path;
  List.iter (fun f -> Sys.remove (Filename.concat lib f)) [ "covered.ml"; "covered.mli"; "naked.ml" ]

(* ---------- Reporting ---------- *)

let test_json_output () =
  let json = Finding.to_json (lint "let x = List.hd xs\n") in
  let contains needle =
    match Str.search_forward (Str.regexp_string needle) json 0 with
    | exception Not_found -> false
    | _ -> true
  in
  check bool "has rule field" true (contains "\"rule\": \"list-partial\"");
  check bool "has file field" true (contains "\"file\": \"lib/fixture/fake.ml\"");
  check bool "has an empty trail" true (contains "\"trail\": []");
  check bool "parses as JSON" true (Result.is_ok (Json.parse json))

let test_catalog_covers_families () =
  let families =
    List.sort_uniq String.compare
      (List.map (fun (_, family, _) -> Rules.family_to_string family) Rules.catalog)
  in
  check (list string) "every family represented"
    [ "determinism"; "hygiene"; "layering"; "partiality"; "polymorphic-compare"; "pool-safety" ]
    families

let suites =
  [
    ( "lint.lexer",
      [
        test_case "comments and strings scrubbed" `Quick test_lexer_blanks_comments_and_strings;
        test_case "nested comments" `Quick test_lexer_nested_comments;
        test_case "char literal vs type variable" `Quick test_lexer_char_literal_vs_type_var;
        test_case "quoted string literals" `Quick test_lexer_quoted_string;
        test_case "string containing *) inside comment" `Quick test_lexer_string_in_comment;
        test_case "quoted string inside comment" `Quick test_lexer_quoted_string_in_comment;
        test_case "char literal inside comment" `Quick test_lexer_char_literal_in_comment;
        test_case "escaped quote inside string" `Quick test_lexer_escaped_quote_in_string;
      ] );
    ( "lint.determinism",
      [
        test_case "random banned outside prng" `Quick test_random_rule;
        test_case "wall clock banned" `Quick test_wall_clock_rule;
        test_case "hashtbl hash banned" `Quick test_hashtbl_hash_rule;
        test_case "hashtbl iteration order" `Quick test_hashtbl_order_rule;
      ] );
    ( "lint.poly_compare",
      [
        test_case "bare compare in sorts" `Quick test_poly_compare_rule;
        test_case "physical equality" `Quick test_physical_equality_rule;
      ] );
    ( "lint.partiality",
      [
        test_case "partial accessors" `Quick test_partiality_rules;
        test_case "suppression scoping" `Quick test_suppression_scope;
        test_case "suppression without a reason is reported" `Quick test_suppression_needs_reason;
      ] );
    ( "lint.hygiene",
      [
        test_case "raw parallelism fenced into the pool" `Quick test_raw_parallelism_rule;
        test_case "stdout printing fenced out of lib" `Quick test_stdout_printf_rule;
        test_case "formatting rules" `Quick test_formatting_rules;
        test_case "dune hardened flags" `Quick test_dune_flags_rule;
        test_case "mli coverage" `Quick test_missing_mli_detection;
      ] );
    ( "lint.report",
      [
        test_case "json output" `Quick test_json_output;
        test_case "catalog families" `Quick test_catalog_covers_families;
      ] );
  ]
