(* concilium-analysis: the static-check gate for the Concilium tree.
   Applies the per-file determinism, partiality and hygiene rules, builds
   the inter-module call graph, infers transitive effects, and runs the
   pool race detector and the architecture layering checker.  Exits 0 when
   the tree is clean, 1 when any finding survives suppression, 2 on usage
   errors.  [--inject-bug] adds a named canary mutation so CI can prove the
   detectors still fire; [--expect-findings] inverts the exit code for
   those runs. *)

module Driver = Concilium_analysis.Driver
module Inject = Concilium_analysis.Inject
module Rules = Concilium_analysis.Rules

open Cmdliner

let paths =
  let doc = "Directories or files to scan." in
  Arg.(value & pos_all string [ "lib"; "bin"; "test" ] & info [] ~docv:"PATH" ~doc)

let format =
  let doc = "Output format: $(b,text) or $(b,json)." in
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text & info [ "format" ] ~doc)

let layers =
  let doc = "Layers file for the architecture checker." in
  Arg.(value & opt string "analysis/layers.txt" & info [ "layers" ] ~docv:"FILE" ~doc)

let inject_bug =
  let doc =
    Printf.sprintf "Inject a named canary mutation before analysing (one of: %s)."
      (String.concat ", " Inject.names)
  in
  Arg.(value & opt_all string [] & info [ "inject-bug" ] ~docv:"NAME" ~doc)

let expect_findings =
  let doc = "Invert the exit code: fail when the analysis finds nothing (canary runs)." in
  Arg.(value & flag & info [ "expect-findings" ] ~doc)

let dump_callgraph =
  let doc = "Write the call graph to $(docv).dot and $(docv).jsonl." in
  Arg.(value & opt (some string) None & info [ "dump-callgraph" ] ~docv:"BASE" ~doc)

let dump_effects =
  let doc = "Write per-function effect summaries to $(docv) (JSONL)." in
  Arg.(value & opt (some string) None & info [ "dump-effects" ] ~docv:"FILE" ~doc)

let list_rules =
  let doc = "List every rule with its family and description, then exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let print_catalog () =
  List.iter
    (fun (id, family, message) ->
      Printf.printf "%-26s %-20s %s\n" id (Rules.family_to_string family) message)
    Rules.catalog

let run paths format layers inject_bug expect_findings dump_callgraph dump_effects list_rules =
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  let unknown = List.filter (fun name -> Inject.find name = None) inject_bug in
  match (missing, unknown) with
  | _ when list_rules ->
      print_catalog ();
      0
  | path :: _, _ ->
      Printf.eprintf "analysis: no such path: %s\n" path;
      2
  | [], name :: _ ->
      Printf.eprintf "analysis: unknown canary %s (have: %s)\n" name
        (String.concat ", " Inject.names);
      2
  | [], [] -> (
      let inject = List.filter_map Inject.find inject_bug in
      match Driver.analyze_tree ~layers_path:layers ~inject ~paths with
      | Error message ->
          Printf.eprintf "analysis: %s\n" message;
          2
      | Ok report ->
          (match format with
          | `Text -> print_string (Driver.render_text report)
          | `Json -> print_string (Driver.render_json report));
          (match dump_callgraph with
          | Some base ->
              write_file (base ^ ".dot") (Driver.callgraph_dot report);
              write_file (base ^ ".jsonl") (Driver.callgraph_jsonl report)
          | None -> ());
          (match dump_effects with
          | Some path -> write_file path (Driver.effects_jsonl report)
          | None -> ());
          let clean = report.Driver.r_findings = [] in
          if expect_findings then if clean then 1 else 0 else if clean then 0 else 1)

let cmd =
  let doc = "static determinism, partiality, race and layering checks for the Concilium tree" in
  let info = Cmd.info "concilium-analysis" ~doc in
  Cmd.v info
    Term.(
      const run $ paths $ format $ layers $ inject_bug $ expect_findings $ dump_callgraph
      $ dump_effects $ list_rules)

let () = exit (Cmd.eval' cmd)
