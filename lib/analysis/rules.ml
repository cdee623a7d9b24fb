(* The rule catalog and the per-file checks.  Line rules are textual
   patterns over scrubbed source (raw source for the formatting rules),
   scoped by path; the hashtbl-order rule looks for a sort in a window
   around each enumeration; dune-flags and missing-mli are project-level.
   Every check reports unsuppressed findings with an empty trail: the
   driver applies the suppression directives once, to these and to the
   whole-program passes alike. *)

type family =
  | Determinism
  | Polymorphic_compare
  | Partiality
  | Hygiene
  | Pool_safety
  | Layering
  | Reachability

let family_to_string = function
  | Determinism -> "determinism"
  | Polymorphic_compare -> "polymorphic-compare"
  | Partiality -> "partiality"
  | Hygiene -> "hygiene"
  | Pool_safety -> "pool-safety"
  | Layering -> "layering"
  | Reachability -> "reachability"

(* ---------- Path scoping ---------- *)

let segments path =
  List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)

let in_tree name path = List.mem name (segments path)
let basename path = Filename.basename path

(* The deterministic PRNG implementation is the one module allowed to talk
   about randomness. *)
let is_prng_module path = basename path = "prng.ml" || basename path = "prng.mli"

(* The domain pool is the one module allowed to use raw parallelism
   primitives; everything else goes through its deterministic fan-out. *)
let is_pool_module path = basename path = "pool.ml" || basename path = "pool.mli"

let in_lib path = in_tree "lib" path

(* The observability exporters are the one library allowed to write to
   stdout: they own the output channel. *)
let in_quiet_lib path = in_lib path && not (in_tree "obs" path)
let in_lib_or_bin path = in_lib path || in_tree "bin" path
let everywhere _ = true

(* ---------- Line rules ---------- *)

type line_rule = {
  id : string;
  family : family;
  pattern : Str.regexp;
  message : string;
  applies : string -> bool;
}

let re = Str.regexp

let line_rules =
  [
    {
      id = "random";
      family = Determinism;
      pattern = re {|\bRandom\.|};
      message =
        "Stdlib.Random is seed-process-global and not reproducible; use \
         Concilium_util.Prng";
      applies = (fun path -> not (is_prng_module path));
    };
    {
      id = "wall-clock";
      family = Determinism;
      pattern = re {|\b\(Sys\.time\|Unix\.gettimeofday\|Unix\.time\|Unix\.gmtime\|Unix\.localtime\)\b|};
      message =
        "wall-clock time breaks simulation reproducibility; use the \
         discrete-event engine clock";
      applies = everywhere;
    };
    {
      id = "hashtbl-hash";
      family = Determinism;
      pattern = re {|Hashtbl\.\(hash\b\|seeded_hash\|randomize\)\|~random:true|};
      message =
        "Hashtbl.hash / randomized hashtables vary across hash-seed runs; \
         derive hashes from Concilium_util.Prng or a fixed digest";
      applies = (fun path -> not (is_prng_module path));
    };
    {
      id = "poly-compare";
      family = Polymorphic_compare;
      pattern =
        (* [\t] below must be a real tab byte, so this pattern cannot use a
           quoted-string literal. *)
        re
          "\\b\\(Stdlib\\|Pervasives\\)\\.compare\\b\\|\\b\\(sort\\|stable_sort\\|sort_uniq\\|fast_sort\\)[ \t]+compare\\b\\|\\b\\(fold_left\\|fold_right\\)[ \t]+\\(min\\|max\\)\\b";
      message =
        "polymorphic compare/min/max in a higher-order position; use a typed \
         comparator (Int.compare, Float.compare, String.compare, Id.compare, ...)";
      applies = everywhere;
    };
    {
      id = "physical-equality";
      family = Polymorphic_compare;
      pattern = re {|==\|!=|};
      message =
        "physical equality (==/!=) is representation-dependent; use structural \
         or typed equality, or suppress where identity is the point";
      applies = in_lib_or_bin;
    };
    {
      id = "list-partial";
      family = Partiality;
      pattern = re {|\bList\.\(hd\|tl\|nth\)\b|};
      message =
        "List.hd/tl/nth raise on short lists; pattern-match or use a total \
         accessor";
      applies = in_lib_or_bin;
    };
    {
      id = "option-get";
      family = Partiality;
      pattern = re {|\bOption\.get\b|};
      message = "Option.get raises on None; pattern-match with an explicit error";
      applies = in_lib_or_bin;
    };
    {
      id = "array-get";
      family = Partiality;
      pattern = re {|\bArray\.get\b|};
      message =
        "explicit Array.get hides an unchecked index; bound-check or index \
         with a.(i) next to its guard";
      applies = in_lib_or_bin;
    };
    {
      id = "obj-magic";
      family = Partiality;
      pattern = re {|\bObj\.magic\b|};
      message = "Obj.magic defeats the type system";
      applies = everywhere;
    };
    {
      id = "assert-false";
      family = Partiality;
      pattern = re "\\bassert[ \t]+false\\b";
      message =
        "assert false marks a partial path; restructure, or suppress with a \
         comment arguing unreachability";
      applies = in_lib_or_bin;
    };
    {
      id = "raw-parallelism";
      family = Hygiene;
      pattern = re {|\b\(Domain\.spawn\|Mutex\.create\|Condition\.create\)\b|};
      message =
        "raw Domain/Mutex/Condition use outside the pool loses its \
         determinism contract; fan out via Concilium_util.Pool";
      applies = (fun path -> not (is_pool_module path));
    };
    {
      id = "stdout-printf";
      family = Hygiene;
      pattern = re {|\b\(Printf\.printf\|print_endline\|Format\.printf\)\b|};
      message =
        "library code must not write to stdout ad hoc; render into a Buffer \
         (or return a string) and let the binary emit it in one write";
      applies = in_quiet_lib;
    };
    {
      id = "tab-indent";
      family = Hygiene;
      pattern = re "\t";
      message = "tab character; indent with spaces";
      applies = everywhere;
    };
    {
      id = "trailing-whitespace";
      family = Hygiene;
      pattern = re "[ \t]+$";
      message = "trailing whitespace";
      applies = everywhere;
    };
  ]

(* [tab-indent] and [trailing-whitespace] are formatting rules: they must see
   the raw line (literals included), not the scrubbed one. *)
let is_raw_rule id = id = "tab-indent" || id = "trailing-whitespace"

(* ---------- Windowed rule: Hashtbl iteration order ---------- *)

(* Hashtbl.iter/fold/to_seq enumerate in hash order, which depends on the
   process hash seed.  A result that feeds ordered output must be sorted
   immediately; the window below is how far away we accept the sort. *)
let hashtbl_order_pattern = re {|Hashtbl\.\(iter\b\|fold\b\|to_seq\)|}
let hashtbl_order_sort_pattern = re {|\bsort\|\bSorted\.|}
let hashtbl_order_window_before = 2
let hashtbl_order_window_after = 6

let hashtbl_order_message =
  "Hashtbl iteration order depends on the hash seed; sort the result within \
   a few lines (or suppress if provably order-independent)"

(* ---------- Per-file checks ---------- *)

let finding ~path ~line rule message = { Finding.rule; file = path; line; message; trail = [] }

let matches pattern line =
  match Str.search_forward pattern line 0 with exception Not_found -> false | _ -> true

let check_source ~path (scrubbed : Lexer.scrubbed) =
  let code_lines = scrubbed.Lexer.code_lines in
  let line_count = Array.length code_lines in
  let out = ref [] in
  for index = 0 to line_count - 1 do
    let line = index + 1 in
    let code = code_lines.(index) in
    let raw =
      if index < Array.length scrubbed.Lexer.raw_lines then scrubbed.Lexer.raw_lines.(index) else ""
    in
    List.iter
      (fun r ->
        if r.applies path && matches r.pattern (if is_raw_rule r.id then raw else code) then
          out := finding ~path ~line r.id r.message :: !out)
      line_rules;
    (* A Hashtbl enumeration is fine only if a sort appears nearby: the
       enumeration feeds it. *)
    if in_lib_or_bin path && matches hashtbl_order_pattern code then begin
      let lo = max 0 (index - hashtbl_order_window_before) in
      let hi = min (line_count - 1) (index + hashtbl_order_window_after) in
      let sorted_nearby = ref false in
      for j = lo to hi do
        if matches hashtbl_order_sort_pattern code_lines.(j) then sorted_nearby := true
      done;
      if not !sorted_nearby then
        out := finding ~path ~line "hashtbl-order" hashtbl_order_message :: !out
    end
  done;
  List.rev !out

let dune_flags_message =
  "dune stanza does not set the hardened warning flags \
   ((flags (:standard -w ... -warn-error +a)))"

let dune_stanza_re = re {|(\(library\|executables?\|test\)\b|}
let dune_flags_re = Str.regexp_string "-warn-error"

(* dune files use s-expressions with ;-comments; a plain textual check is
   enough here. *)
let check_dune ~path content =
  let rec first_stanza line = function
    | [] -> []
    | l :: rest ->
        if not (matches dune_stanza_re l) then first_stanza (line + 1) rest
        else if matches dune_flags_re content then []
        else [ finding ~path ~line "dune-flags" dune_flags_message ]
  in
  first_stanza 1 (String.split_on_char '\n' content)

let missing_mli_message =
  "library module has no .mli; every lib/ module must declare its interface"

let missing_mli files =
  List.filter_map
    (fun path ->
      if Filename.check_suffix path ".ml" && in_lib path && not (List.mem (path ^ "i") files) then
        Some (finding ~path ~line:1 "missing-mli" missing_mli_message)
      else None)
    files

(* ---------- Catalog (for --list-rules and the tests) ---------- *)

(* The whole-program passes report these ids; see Races and Layering. *)
let whole_program =
  [
    ("pool-shared-write", Pool_safety, "a domain-pool task reaches a write to shared mutable state");
    ("pool-io", Pool_safety, "a domain-pool task reaches I/O");
    ("pool-domain", Pool_safety, "a domain-pool task reaches a raw domain primitive");
    ( "pool-unsplit-prng",
      Pool_safety,
      "a domain-pool task draws from a generator shared across tasks instead of a pre-split one" );
    ("layer-back-edge", Layering, "a library depends on one at the same or a higher layer");
    ("layer-unknown", Layering, "a library is missing from the layers file, or the file does not parse");
    ( "unreachable",
      Reachability,
      "a library definition that no entry point (bin, bench, examples, perfbench) or test reaches" );
    ("test-only", Reachability, "a library definition that only test/ reaches");
    ( "suppression-missing-reason",
      Hygiene,
      "an analysis: allow directive without a justification (it suppresses nothing)" );
  ]

let catalog =
  List.map (fun r -> (r.id, r.family, r.message)) line_rules
  @ [
      ("hashtbl-order", Determinism, hashtbl_order_message);
      ("missing-mli", Hygiene, missing_mli_message);
      ("dune-flags", Hygiene, dune_flags_message);
    ]
  @ whole_program
