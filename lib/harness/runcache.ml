(* Two-tier content-addressed run cache.  See runcache.mli for the
   contract; entry files are {!Store} record files. *)

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
}

let version = Printf.sprintf "isf-runcache 2 ocaml-%s" Sys.ocaml_version
let version_file = "CACHE_VERSION"

(* configuration + stats, shared across domains *)
let lock = Mutex.create ()
let dir_ref = ref None
let zero = { mem_hits = 0; disk_hits = 0; misses = 0; stores = 0; corrupt = 0 }
let stats_ref = ref zero
let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
let dir () = locked (fun () -> !dir_ref)
let stats () = locked (fun () -> !stats_ref)

let bump which =
  locked (fun () ->
      let s = !stats_ref in
      stats_ref :=
        (match which with
        | `Mem -> { s with mem_hits = s.mem_hits + 1 }
        | `Disk -> { s with disk_hits = s.disk_hits + 1 }
        | `Miss -> { s with misses = s.misses + 1 }
        | `Store -> { s with stores = s.stores + 1 }
        | `Corrupt -> { s with corrupt = s.corrupt + 1 }))

let corruptions () = (stats ()).corrupt

(* registered in-memory caches, cleared together by [reset_memory] *)
let resets : (unit -> unit) list ref = ref []
let on_reset f = locked (fun () -> resets := f :: !resets)

let reset_memory () =
  let fs = locked (fun () -> !resets) in
  List.iter (fun f -> f ()) fs;
  locked (fun () -> stats_ref := zero)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let trace_stats_registered = ref false

let set_dir d =
  (match d with
  | None -> ()
  | Some d ->
      mkdir_p d;
      let swept = Store.sweep_stale_tmps d in
      if swept > 0 && !Pool.trace then
        Printf.eprintf "[runcache] swept %d stale tmp file(s) in %s\n%!" swept d;
      let vpath = Filename.concat d version_file in
      if Sys.file_exists vpath then begin
        let found =
          String.trim (In_channel.with_open_bin vpath In_channel.input_all)
        in
        if not (String.equal found version) then
          failwith
            (Printf.sprintf
               "run cache %s was written by an incompatible version (%S, this \
                build is %S); delete it or point --cache elsewhere"
               d found version)
      end
      else if not (Store.replace ~dir:d vpath (version ^ "\n")) then
        failwith (Printf.sprintf "run cache %s is not writable" d));
  locked (fun () ->
      dir_ref := d;
      if d <> None && not !trace_stats_registered then begin
        trace_stats_registered := true;
        at_exit (fun () ->
            if !Pool.trace then
              let s = stats () in
              Printf.eprintf
                "[runcache] mem-hits=%d disk-hits=%d misses=%d stores=%d \
                 corrupt=%d\n\
                 %!"
                s.mem_hits s.disk_hits s.misses s.stores s.corrupt)
      end)

let entry_path ~dir ~key = Filename.concat dir (Digest.hex key ^ ".cell")

module Make (V : sig
  type t
end) =
struct
  let memo : (string, V.t) Sync.Memo.t = Sync.Memo.create ~size:64 ()
  let () = on_reset (fun () -> Sync.Memo.clear memo)

  (* Anything short of a fully verified entry is a miss, recomputed and
     overwritten; everything but plain absence also counts as a
     corruption event, which long-running services ({!Serve.Daemon})
     watch to circuit-break a rotting disk tier.  A collision is
     counted too, then raised: it must never be served. *)
  let disk_load ~key =
    match dir () with
    | None -> None
    | Some d -> (
        match Store.read_record ~key (entry_path ~dir:d ~key) with
        | `Hit payload -> Some (Marshal.from_string payload 0 : V.t)
        | `Missing -> None
        | `Corrupt ->
            bump `Corrupt;
            None
        | exception e ->
            bump `Corrupt;
            raise e)

  let disk_save ~key v =
    match dir () with
    | None -> false
    | Some d ->
        Store.write_record ~dir:d (entry_path ~dir:d ~key) ~key
          (Marshal.to_string v [])

  let find ~key f =
    match Sync.Memo.find_opt memo key with
    | Some v ->
        bump `Mem;
        v
    | None ->
        Sync.Memo.get memo key (fun () ->
            match disk_load ~key with
            | Some v ->
                bump `Disk;
                v
            | None ->
                let v = f () in
                bump `Miss;
                if disk_save ~key v then bump `Store;
                v)

  let cached ~key =
    match Sync.Memo.find_opt memo key with
    | Some _ -> true
    | None -> disk_load ~key <> None
end
