type observation = { time : float; prober : int; link : int; up : bool }

(* Per-link lists, newest first; probes arrive in near-chronological order
   so queries reverse once. *)
type t = { table : (int, observation list ref) Hashtbl.t; mutable count : int }

let create () = { table = Hashtbl.create 1024; count = 0 }

let record t observation =
  (match Hashtbl.find_opt t.table observation.link with
  | Some cell -> cell := observation :: !cell
  | None -> Hashtbl.replace t.table observation.link (ref [ observation ]));
  t.count <- t.count + 1

let count t = t.count

let on_link t ~link ~lo ~hi =
  match Hashtbl.find_opt t.table link with
  | None -> []
  | Some cell ->
      List.rev
        (List.filter (fun obs -> obs.time >= lo && obs.time <= hi) !cell)
