(* The record store ([Harness.Store]) under damage, over three real
   artefacts: a daemon journal, a Table 1 checkpoint and a run-cache
   entry.  Each is cut at every length and has single bits flipped in
   every frame-header byte and at a fixed stride through the payloads.
   Reopening a damaged artefact may only
   - recover exactly what a clean prefix of it recovers (a log), or the
     clean value (a cache entry);
   - miss, counting the entry corrupt (a cache entry);
   - raise [Failure] naming the file.
   A different value, or any other exception, fails the test, and so
   does a log that refuses a torn tail or recovers past corruption. *)

module Store = Harness.Store
module Robust = Harness.Robust
module R = Harness.Runcache

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tmp name ext =
  let path = Filename.temp_file ("isf_store_" ^ name) ext in
  Sys.remove path;
  path

let read path = In_channel.with_open_bin path In_channel.input_all

let write path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
  Bytes.to_string b

(* [f damage bytes] for every truncation of [clean] ([`Cut]), every bit
   of every header byte of the frames starting at [starts], and one bit
   every [stride] payload bytes ([`Flip]).  A header is 4 + 8 + 16
   bytes (store.mli). *)
let stride = 13

let each_damage clean starts f =
  for len = 0 to String.length clean - 1 do
    f (`Cut len) (String.sub clean 0 len)
  done;
  let header = 28 in
  let ends = List.tl starts @ [ String.length clean ] in
  List.iter2
    (fun start stop ->
      for i = start to start + header - 1 do
        for bit = 0 to 7 do
          f (`Flip i) (flip clean i bit)
        done
      done;
      let i = ref (start + header) in
      while !i < stop do
        f (`Flip !i) (flip clean !i (!i mod 8));
        i := !i + stride
      done)
    starts ends

(* frame start offsets of the concatenated frames of [payloads] *)
let starts_of payloads =
  List.rev
    (snd
       (List.fold_left
          (fun (o, acc) p -> (o + String.length (Store.frame p), o :: acc))
          (0, []) payloads))

let records ~meta path =
  let log, records = Store.open_log ~what:"t" ~owner:"t" ~flag:"t" ~meta path in
  Store.close log;
  records

(* The log property.  [observe path] opens the log, returns what it
   recovered and closes it.  A recovered log must recover what the clean
   prefix of some number of frames recovers, and be left holding exactly
   that prefix.  Which damage is recovered is the store's policy: a cut
   (except inside the meta frame) and a flip in the last frame are torn
   tails; any other flip is corruption and is refused. *)
let check_log ~name ~meta ~observe path clean =
  let frames = meta :: records ~meta path in
  check_str (name ^ ": clean artefact is its frames") clean
    (String.concat "" (List.map Store.frame frames));
  let starts = starts_of frames in
  let meta_end = List.nth starts 1 in
  let last = List.nth starts (List.length starts - 1) in
  let prefixes =
    List.map
      (fun stop ->
        let p = String.sub clean 0 stop in
        write path p;
        (p, observe path))
      (List.tl starts @ [ String.length clean ])
  in
  each_damage clean starts (fun damage bytes ->
      let where, torn_tail =
        match damage with
        | `Cut n -> (Printf.sprintf "cut %d" n, n = 0 || n >= meta_end)
        | `Flip i -> (Printf.sprintf "flip at %d" i, i >= last)
      in
      write path bytes;
      match observe path with
      | obs -> (
          if not torn_tail then
            Alcotest.failf "%s: %s is corruption but was recovered" name where;
          match List.assoc_opt (read path) prefixes with
          | Some want when obs = want -> ()
          | Some _ ->
              Alcotest.failf "%s: %s recovered a different value" name where
          | None ->
              Alcotest.failf "%s: %s left a file that is not a clean prefix"
                name where)
      | exception Failure m ->
          if torn_tail then
            Alcotest.failf "%s: %s is a torn tail but was refused: %s" name
              where m;
          if not (Gen_jasm.contains m path) then
            Alcotest.failf "%s: refusal does not name the file: %s" name m);
  Sys.remove path

(* ---- a daemon journal ---- *)

let test_journal () =
  let path = tmp "journal" ".journal" in
  let entries =
    Serve.Fleet.jobs ~seed:5 ~n:3 ()
    |> List.mapi (fun i j -> (Serve.Fleet.client_of ~clients:2 i, j))
  in
  R.reset_memory ();
  Fun.protect ~finally:R.reset_memory (fun () ->
      ignore
        (Serve.Fleet.run_daemon
           ~config:{ Serve.Daemon.default with workers = 1 }
           ~journal:path ~meta:"store" entries));
  let observe path =
    let j, r = Serve.Journal.open_ ~meta:"store" path in
    Serve.Journal.close j;
    r
  in
  check_log ~name:"journal" ~meta:"store" ~observe path (read path)

(* ---- a Table 1 checkpoint ---- *)

let test_checkpoint () =
  let path = tmp "table" ".ckpt" in
  let benches = [ Workloads.Suite.find "jess"; Workloads.Suite.find "db" ] in
  Robust.set_checkpoint ~meta:"t1" (Some path);
  Fun.protect
    ~finally:(fun () -> Robust.set_checkpoint None)
    (fun () -> ignore (Harness.Table1.run ~scale:1 ~benches ()));
  let clean = read path in
  let cells =
    List.map
      (fun r -> (Marshal.from_string r 0 : string * string))
      (records ~meta:"t1" path)
  in
  (* which cells the armed checkpoint serves, as marshaled bytes; a
     cell it does not hold runs its body, which fails *)
  let observe path =
    Robust.set_checkpoint ~meta:"t1" (Some path);
    Fun.protect
      ~finally:(fun () -> Robust.set_checkpoint None)
      (fun () ->
        ( Robust.checkpointed_cells (),
          List.map
            (fun (key, _) ->
              match Robust.cell ~retries:0 ~key (fun () -> raise Exit) with
              | Ok (v : Obj.t) -> Some (Marshal.to_string v [])
              | Error _ -> None)
            cells ))
  in
  write path clean;
  check_bool "checkpoint: the clean file serves every cell as written" true
    (observe path = (List.length cells, List.map (fun (_, p) -> Some p) cells));
  write path clean;
  check_log ~name:"checkpoint" ~meta:"t1" ~observe path clean

(* ---- a run-cache entry ---- *)

module Metrics_cache = R.Make (struct
  type t = Harness.Measure.metrics
end)

exception Recomputed

let test_cache_entry () =
  let metrics =
    Harness.Measure.run_baseline
      (Harness.Measure.prepare ~scale:1 (Workloads.Suite.find "jess"))
  in
  let payload = Marshal.to_string metrics [] in
  let key = "store-test baseline jess scale=1" in
  let dir = tmp "cache" ".cache" in
  let path = Filename.concat dir (Harness.Digest.hex key ^ ".cell") in
  R.reset_memory ();
  R.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      R.set_dir None;
      R.reset_memory ())
    (fun () ->
      ignore (Metrics_cache.find ~key (fun () -> metrics));
      let clean = read path in
      check_str "entry is the key frame, then the payload frame" clean
        (Store.frame key ^ Store.frame payload);
      let misses = ref 0 in
      each_damage clean (starts_of [ key; payload ]) (fun _ bytes ->
          write path bytes;
          R.reset_memory ();
          match Metrics_cache.find ~key (fun () -> raise Recomputed) with
          | v ->
              if Marshal.to_string v [] <> payload then
                Alcotest.fail "a damaged entry served a different value"
          | exception Recomputed ->
              incr misses;
              if (R.stats ()).R.corrupt <> 1 then
                Alcotest.fail "a miss did not count the entry corrupt"
          | exception Failure m ->
              if not (Gen_jasm.contains m path) then
                Alcotest.failf "refusal does not name the entry: %s" m);
      check_bool "damage was detected" true (!misses > 0))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "damaged daemon journal" `Quick test_journal;
        Alcotest.test_case "damaged table checkpoint" `Quick test_checkpoint;
        Alcotest.test_case "damaged run-cache entry" `Quick test_cache_entry;
      ] );
  ]
