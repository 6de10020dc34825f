(* The daemon's crash-recovery log: a {!Harness.Store} log of marshaled
   [record]s, meta fingerprint first.  See journal.mli for the recovery
   semantics. *)

type record =
  | Meta of string
  | Submitted of { id : int; client : string; line : string }
  | Completed of { id : int; result : string }
  | Quarantined of { digest : string; report : string }
  | Profile of { id : int; payload : string }

type recovered = {
  pending : (int * string * string) list; (* id, client, canonical job line *)
  completed : (int * string) list; (* id, canonical result line *)
  quarantined : (string * string) list; (* job digest, report *)
  profiles : (int * string) list; (* id, canonical profile rendering *)
  next_id : int;
}

type t = Harness.Store.log

let recover records =
  let submitted = Hashtbl.create 64 in
  let completed = Hashtbl.create 64 in
  let profiles = Hashtbl.create 64 in
  let quarantined = ref [] in
  let next_id = ref 1 in
  List.iter
    (fun r ->
      match r with
      | Meta _ -> ()
      | Submitted { id; client; line } ->
          Hashtbl.replace submitted id (client, line);
          if id >= !next_id then next_id := id + 1
      | Completed { id; result } ->
          Hashtbl.replace completed id result;
          if id >= !next_id then next_id := id + 1
      | Profile { id; payload } -> Hashtbl.replace profiles id payload
      | Quarantined { digest; report } ->
          if not (List.mem_assoc digest !quarantined) then
            quarantined := (digest, report) :: !quarantined)
    records;
  let pending =
    Hashtbl.fold
      (fun id (client, line) acc ->
        if Hashtbl.mem completed id then acc else (id, client, line) :: acc)
      submitted []
    |> List.sort compare
  in
  let completed =
    Hashtbl.fold (fun id result acc -> (id, result) :: acc) completed []
    |> List.sort compare
  in
  (* only payloads whose Completed record made it to disk: a Profile
     followed by a torn Completed means the job re-runs and appends a
     fresh pair (execution is deterministic, so the bytes agree) *)
  let profiles =
    List.filter_map
      (fun (id, _) ->
        match Hashtbl.find_opt profiles id with
        | Some p -> Some (id, p)
        | None -> None)
      completed
  in
  {
    pending;
    completed;
    quarantined = List.rev !quarantined;
    profiles;
    next_id = !next_id;
  }

let open_ ?(meta = "") path =
  let t, payloads =
    Harness.Store.open_log ~what:"job journal" ~owner:"daemon"
      ~flag:"--journal" ~meta path
  in
  (t, recover (List.map (fun p -> (Marshal.from_string p 0 : record)) payloads))

let append t r = Harness.Store.append t (Marshal.to_string r [])
let close = Harness.Store.close
