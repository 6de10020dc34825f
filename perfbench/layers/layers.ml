(* Layer tracer for the repository benchmark.

   Replays a workload's operations in one domain through the public entry
   point of each layer — frontend (jasm, bytecode, opt), core transform,
   run-key digest, run cache, link, slot resolution, execute, decode,
   profile report/render/merge and journal append — and records a span
   around every call.  Spans stay in memory and are written to
   WORK/spans.tsv when the replay ends; perfbench/run.py turns them into
   per-layer self times.  Counts (instructions, cycles, code words, trace
   events, ...) are printed as one JSON object on stdout.

   Every replay runs on fresh caches with span recording off, then again
   with it on (serve replays first run once more as a warm-up).  The
   wall-time ratio of the two is the tracing overhead; the spans and
   counts come from the traced run.

     layers.exe serve cold JOBS WORK           replay serve-cold jobs
     layers.exe serve warm JOBS WORK CACHEDIR  replay serve-warm jobs
                                               against a filled disk cache
     layers.exe tables WORKERS WORK            time the real prewarm and
                                               render of [isf table all
                                               --traces on], then replay
                                               its deduplicated cells

   JOBS holds one canonical job line per line.  The replayed result lines
   go to WORK/replay.results, so they can be checked against the same
   reference as the daemon's. *)

module Lir = Ir.Lir
module Measure = Harness.Measure
module Job = Serve.Job

(* ------------------------------------------------------------------ *)
(* Spans and counts                                                    *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;
  job : int;
  name : string;
  shadow : bool;
      (* a call made only to break a span down (warm transform and digest
         repeat work run_transformed does inside its own span); left out
         of the per-job layer sum *)
  t0 : float;
  t1 : float;
}

let recording = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let current_job = ref 0

let span ?(shadow = false) name f =
  if not !recording then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      current := parent;
      spans :=
        { id; parent; job = !current_job; name; shadow; t0; t1 } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let job_span id f =
  current_job := id;
  let v = span "job" f in
  current_job := 0;
  v

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%.0f\t%.0f\n" s.id s.parent
            s.job s.name
            (if s.shadow then 1 else 0)
            (s.t0 *. 1e9) (s.t1 *. 1e9))
        (List.rev !spans))

let counts : (string, int) Hashtbl.t = Hashtbl.create 32

let count name n =
  if !recording then
    Hashtbl.replace counts name
      (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

(* ------------------------------------------------------------------ *)
(* Frontend                                                            *)
(* ------------------------------------------------------------------ *)

(* Replay-local memos with the daemon's granularity: the jasm compile
   once per benchmark (Workloads.Suite.compile's memo), bytecode -> LIR
   and the optimizer once per (benchmark, scale) (Measure.prepare's).
   Jasm.Compile is called directly because the suite memo is process
   wide and would hide the second replay's compiles. *)
let jasm_memo : (string, Bytecode.Classfile.program) Hashtbl.t =
  Hashtbl.create 8

let build_memo : (string * int, Measure.build) Hashtbl.t = Hashtbl.create 16

let lir_instrs funcs =
  List.fold_left
    (fun acc (f : Lir.func) ->
      let n = ref acc in
      Ir.Vec.iter
        (fun (b : Lir.block) ->
          if b.Lir.role <> Lir.Dead then n := !n + Array.length b.Lir.instrs + 1)
        f.Lir.blocks;
      !n)
    0 funcs

let build_of (bench : Workloads.Suite.benchmark) scale =
  let name = bench.Workloads.Suite.bname in
  match Hashtbl.find_opt build_memo (name, scale) with
  | Some b -> b
  | None ->
      span "frontend" (fun () ->
          let classes =
            match Hashtbl.find_opt jasm_memo name with
            | Some c -> c
            | None ->
                let c =
                  span "jasm" (fun () ->
                      Jasm.Compile.compile_string ~file:name
                        bench.Workloads.Suite.source)
                in
                Hashtbl.replace jasm_memo name c;
                c
          in
          let raw =
            span "bytecode" (fun () -> Bytecode.To_lir.program_to_funcs classes)
          in
          let base_funcs = span "opt" (fun () -> Opt.Pipeline.front raw) in
          count "frontend.builds" 1;
          count "frontend.lir_instrs" (lir_instrs base_funcs);
          let b = { Measure.bench; scale; classes; base_funcs } in
          Hashtbl.replace build_memo (name, scale) b;
          b)

let reset_memos () =
  Hashtbl.reset jasm_memo;
  Hashtbl.reset build_memo;
  Harness.Runcache.reset_memory ()

(* ------------------------------------------------------------------ *)
(* Transform, digest, cache, link, execute, decode                     *)
(* ------------------------------------------------------------------ *)

let transform_funcs tr (build : Measure.build) =
  let funcs =
    List.map (fun f -> (tr f).Core.Transform.func) build.Measure.base_funcs
  in
  count "transform.code_words"
    (List.fold_left (fun a f -> a + Vm.Program.code_size_words f) 0 funcs);
  funcs

(* A run-cache instance of the same payload type as Measure's, keyed the
   way Measure keys it.  The cold replays go through it so the lookup
   and the store are the real Runcache code, with link, execute and
   decode as child spans instead of hidden inside run_transformed. *)
module Cache = Harness.Runcache.Make (struct
  type t = Measure.metrics
end)

let execute ?trace_threshold ?timer_period ~kind ~trigger ~funcs
    ~funcs_digest (build : Measure.build) =
  let bname = build.Measure.bench.Workloads.Suite.bname in
  let key =
    Harness.Digest.run_config
      ?traces:
        (Option.map (Printf.sprintf "threshold:%d") trace_threshold)
      ~kind ~bench:bname ~scale:build.Measure.scale ~funcs_digest
      ~engine:"fast"
      ~recording:(if trigger = None then "none" else "slots")
      ~trigger:
        (match trigger with
        | None -> "none"
        | Some t -> Harness.Digest.trigger t)
      ~timer_period ~costs:(Harness.Digest.costs Vm.Costs.default)
      ~faults:(Harness.Digest.fault_plan Fault.none)
      ()
  in
  span "cache" (fun () ->
      Cache.find ~key (fun () ->
          let prog =
            span "link" (fun () ->
                Vm.Program.link build.Measure.classes ~funcs)
          in
          count "link.code_words" prog.Vm.Program.total_code_words;
          let slots =
            Option.map
              (fun t ->
                let s = span "slots" (fun () -> Profiles.Slots.create prog) in
                count "slots.events" (Profiles.Slots.n_events s);
                (s, Core.Sampler.create t))
              trigger
          in
          let hooks, recorder =
            match slots with
            | None -> (Vm.Interp.null_hooks, None)
            | Some (s, sampler) ->
                (Profiles.Slots.hooks s sampler, Some (Profiles.Slots.recorder s))
          in
          let label = Printf.sprintf "%s (scale %d)" bname build.Measure.scale in
          let deadline = Unix.gettimeofday () +. 600.0 in
          let res =
            span "exec" (fun () ->
                Vm.Interp.run ~engine:`Fast ~use_icache:true ?timer_period
                  ~faults:Fault.none ~label ~deadline ?recorder
                  ?trace_threshold prog ~entry:Workloads.Suite.entry
                  ~args:[ build.Measure.scale ] hooks)
          in
          let c = res.Vm.Interp.counters in
          count "exec.runs" 1;
          count "exec.instructions" res.Vm.Interp.instructions;
          count "exec.cycles" res.Vm.Interp.cycles;
          count "exec.checks" c.Vm.Interp.checks;
          count "exec.samples" c.Vm.Interp.samples;
          count "exec.instrument_ops" c.Vm.Interp.instrument_ops;
          let collector =
            match slots with
            | None -> Profiles.Collector.create ()
            | Some (s, _) -> span "decode" (fun () -> Profiles.Slots.decode s)
          in
          {
            Measure.cycles = res.Vm.Interp.cycles;
            instructions = res.Vm.Interp.instructions;
            checks = c.Vm.Interp.checks;
            samples = c.Vm.Interp.samples;
            entries = c.Vm.Interp.entries;
            backedge_yps = c.Vm.Interp.backedge_yps;
            instrument_ops = c.Vm.Interp.instrument_ops;
            output = res.Vm.Interp.output;
            code_words = prog.Vm.Program.total_code_words;
            collector;
            fallbacks = res.Vm.Interp.fallbacks;
          }))

(* ------------------------------------------------------------------ *)
(* Serve jobs                                                          *)
(* ------------------------------------------------------------------ *)

let sampler_trigger = function
  | Job.Counter { interval; jitter } -> Core.Sampler.Counter { interval; jitter }
  | Job.Counter_per_thread { interval } ->
      Core.Sampler.Counter_per_thread { interval }
  | Job.Timer_bit -> Core.Sampler.Timer_bit
  | Job.Always -> Core.Sampler.Always
  | Job.Never -> Core.Sampler.Never

(* The profile digest of Job.summary: MD5 over the collector's CSV
   rendering. *)
let profile_md5 collector =
  Harness.Digest.hex
    (String.concat "\000"
       (List.map
          (fun (kind, text) -> kind ^ "\001" ^ text)
          (Profiles.Report.to_csv collector)))

(* One serve job, in the order Daemon.submit and Job.execute_full run
   it.  Cold: transform and digest, then a run-cache miss that links,
   executes, decodes and stores.  Warm: the real
   Harness.Measure.run_transformed (a run-cache hit); transform and
   digest are timed beside it as shadow spans, so cache.hit_ms is the
   run_transformed span minus both. *)
let replay_job ~warm ~journal ~snapshots id (job : Job.t) =
  job_span id (fun () ->
      span "journal" (fun () ->
          Serve.Journal.append journal
            (Serve.Journal.Submitted
               { id; client = "bench"; line = Job.render job }));
      count "journal.appends" 1;
      let bench = Workloads.Suite.find job.Job.bench in
      let build =
        build_of bench
          (Option.value ~default:bench.Workloads.Suite.default_scale
             job.Job.scale)
      in
      let tr =
        Job.transform_of_variant (Job.spec_of_names job.Job.specs)
          job.Job.variant
      in
      let trigger = sampler_trigger job.Job.trigger in
      let m =
        if warm then begin
          let funcs =
            span ~shadow:true "transform" (fun () -> transform_funcs tr build)
          in
          ignore
            (span ~shadow:true "digest" (fun () -> Harness.Digest.funcs funcs));
          span "cache" (fun () ->
              Measure.run_transformed ~engine:`Fast ~recording:`Slots ~trigger
                ~transform:tr build)
        end
        else begin
          let funcs = span "transform" (fun () -> transform_funcs tr build) in
          let funcs_digest =
            span "digest" (fun () -> Harness.Digest.funcs funcs)
          in
          execute ~kind:"instrumented" ~trigger:(Some trigger) ~funcs
            ~funcs_digest build
        end
      in
      let line =
        span "report" (fun () ->
            let summary =
              {
                Job.cycles = m.Measure.cycles;
                instructions = m.Measure.instructions;
                checks = m.Measure.checks;
                samples = m.Measure.samples;
                output_md5 = Harness.Digest.hex m.Measure.output;
                profile_md5 = profile_md5 m.Measure.collector;
              }
            in
            Job.result_line ~id job (Job.Done summary))
      in
      let payload =
        span "render" (fun () ->
            let snap = Profiles.Merge.of_collector m.Measure.collector in
            snapshots := snap :: !snapshots;
            Profiles.Merge.render snap)
      in
      count "payload.bytes" (String.length payload);
      span "journal" (fun () ->
          Serve.Journal.append journal (Serve.Journal.Profile { id; payload });
          Serve.Journal.append journal
            (Serve.Journal.Completed { id; result = line }));
      count "journal.appends" 2;
      line)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let file_size path = (Unix.stat path).Unix.st_size

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Run [replay] untraced, then traced, each from the same cold state.
   [warm_up] adds a discarded first run for processes that have done no
   work yet: the first replay in a process also pays heap growth. *)
let replay_twice ~warm_up ~prepare replay =
  let run traced =
    prepare ();
    Hashtbl.reset counts;
    spans := [];
    recording := traced;
    let v, secs = time replay in
    recording := false;
    (v, secs)
  in
  if warm_up then ignore (run false);
  let _, untraced_s = run false in
  let v, traced_s = run true in
  (v, untraced_s, traced_s)

let print_json ~fields =
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%S: %s" (if i = 0 then "" else ", ") k v)
    fields;
  print_string "}\n"

let counts_json () =
  let l =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) l)
  ^ "}"

let serve ~warm ~jobs_file ~work ~cache =
  let jobs = List.map Job.parse (read_lines jobs_file) in
  let journal_path = Filename.concat work "replay.journal" in
  let replays = ref 0 in
  let prepare () =
    reset_memos ();
    (try Sys.remove journal_path with Sys_error _ -> ());
    incr replays;
    Harness.Runcache.set_dir
      (Some
         (match cache with
         | Some dir -> dir
         | None -> Filename.concat work (Printf.sprintf "replay-cache%d" !replays)))
  in
  let (lines, merge_inputs), untraced_s, traced_s =
    replay_twice ~warm_up:true ~prepare (fun () ->
        let journal, _ = Serve.Journal.open_ ~meta:"perfbench" journal_path in
        let snapshots = ref [] in
        let lines =
          List.mapi
            (fun i j -> replay_job ~warm ~journal ~snapshots (i + 1) j)
            jobs
        in
        ignore
          (span "merge" (fun () -> Profiles.Merge.merge_list !snapshots));
        Serve.Journal.close journal;
        (lines, List.length !snapshots))
  in
  Hashtbl.replace counts "journal.bytes" (file_size journal_path);
  Hashtbl.replace counts "merge.inputs" merge_inputs;
  Out_channel.with_open_text (Filename.concat work "replay.results") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  write_spans (Filename.concat work "spans.tsv");
  print_json
    ~fields:
      [
        ("jobs", string_of_int (List.length jobs));
        ("untraced_s", Printf.sprintf "%.6f" untraced_s);
        ("traced_s", Printf.sprintf "%.6f" traced_s);
        ("counts", counts_json ());
      ]

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let tables_traces = 256 (* the threshold [--traces on] selects *)

let transform_of_cell (v : Harness.Schedule.variant) specs =
  (* Schedule keeps a single spec bare and combines several *)
  let spec =
    match specs with
    | [ one ] -> List.assoc one Job.instr_kinds
    | l -> Core.Spec.combine (List.map (fun n -> List.assoc n Job.instr_kinds) l)
  in
  let via name = Job.transform_of_variant spec name in
  match v with
  | Harness.Schedule.Exhaustive -> via "exhaustive"
  | Full_dup -> via "full-dup"
  | Partial_dup -> via "partial-dup"
  | No_dup -> via "no-dup"
  | Yp_opt -> via "yp-opt"
  | Checks_only { entries; backedges } ->
      Core.Transform.checks_only ~entries ~backedges

let replay_cell id (cell : Harness.Schedule.run) =
  job_span id (fun () ->
      match cell with
      | Harness.Schedule.Baseline { bench; scale } ->
          let b = Workloads.Suite.find bench in
          let build =
            build_of b (Option.value ~default:b.Workloads.Suite.default_scale scale)
          in
          let funcs = build.Measure.base_funcs in
          let funcs_digest =
            span "digest" (fun () -> Harness.Digest.funcs funcs)
          in
          execute ~trace_threshold:tables_traces ~kind:"baseline" ~trigger:None
            ~funcs ~funcs_digest build
      | Instrumented { bench; scale; variant; specs; trigger; timer_period } ->
          let b = Workloads.Suite.find bench in
          let build =
            build_of b (Option.value ~default:b.Workloads.Suite.default_scale scale)
          in
          let tr = transform_of_cell variant specs in
          let funcs = span "transform" (fun () -> transform_funcs tr build) in
          let funcs_digest =
            span "digest" (fun () -> Harness.Digest.funcs funcs)
          in
          execute ~trace_threshold:tables_traces ?timer_period
            ~kind:"instrumented" ~trigger:(Some trigger) ~funcs ~funcs_digest
            build)

(* What the real run measured for a cell: a memory hit in Measure's cache
   once [isf table all]'s prewarm and drivers have run in this process. *)
let measured (cell : Harness.Schedule.run) =
  let prep bench scale = Measure.prepare ?scale (Workloads.Suite.find bench) in
  match cell with
  | Harness.Schedule.Baseline { bench; scale } ->
      Measure.run_baseline (prep bench scale)
  | Instrumented { bench; scale; variant; specs; trigger; timer_period } ->
      Measure.run_transformed ~trigger ?timer_period
        ~transform:(transform_of_cell variant specs)
        (prep bench scale)

let fingerprint (m : Measure.metrics) =
  Printf.sprintf "cycles=%d instr=%d checks=%d samples=%d output=%s"
    m.Measure.cycles m.Measure.instructions m.Measure.checks m.Measure.samples
    (Harness.Digest.hex m.Measure.output)

let with_stdout_to_null f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let tables ~workers ~work =
  Measure.set_traces (Some tables_traces);
  Harness.Runcache.set_dir None;
  let requested = Harness.Experiments.requests () in
  let cells = Harness.Schedule.dedupe requested in
  (* the real [isf table all] path, in process: prewarm, then the
     drivers render from the warm cache *)
  let (), prewarm_s =
    time (fun () -> Harness.Experiments.prewarm ~jobs:workers ())
  in
  let ok, render_s =
    time (fun () ->
        with_stdout_to_null (fun () ->
            Harness.Experiments.run_gated ~jobs:workers ()))
  in
  if not ok then failwith "isf table all: shape gate failed in process";
  let st = Harness.Runcache.stats () in
  let expected = List.map (fun c -> fingerprint (measured c)) cells in
  let prepare () =
    reset_memos ();
    Vm.Trace.reset_stats ()
  in
  let replayed, untraced_s, traced_s =
    (* the in-process prewarm and render above already grew the heap *)
    replay_twice ~warm_up:false ~prepare (fun () ->
        List.mapi (fun i c -> fingerprint (replay_cell (i + 1) c)) cells)
  in
  List.iter
    (fun (name, n) ->
      Hashtbl.replace counts ("trace." ^ String.lowercase_ascii name) n)
    (Vm.Trace.stats ());
  let mismatches =
    List.length (List.filter Fun.id (List.map2 ( <> ) expected replayed))
  in
  write_spans (Filename.concat work "spans.tsv");
  print_json
    ~fields:
      [
        ("jobs", string_of_int (List.length cells));
        ("untraced_s", Printf.sprintf "%.6f" untraced_s);
        ("traced_s", Printf.sprintf "%.6f" traced_s);
        ("prewarm_s", Printf.sprintf "%.6f" prewarm_s);
        ("render_s", Printf.sprintf "%.6f" render_s);
        ("cells_requested", string_of_int (List.length requested));
        ("cells_unique", string_of_int (List.length cells));
        ("replay_mismatches", string_of_int mismatches);
        ( "cache",
          Printf.sprintf
            "{\"mem_hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
             \"stores\": %d, \"corrupt\": %d}"
            st.Harness.Runcache.mem_hits st.Harness.Runcache.disk_hits
            st.Harness.Runcache.misses st.Harness.Runcache.stores
            st.Harness.Runcache.corrupt );
        ("counts", counts_json ());
      ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "serve"; "cold"; jobs_file; work ] ->
      serve ~warm:false ~jobs_file ~work ~cache:None
  | [ "serve"; "warm"; jobs_file; work; cache ] ->
      serve ~warm:true ~jobs_file ~work ~cache:(Some cache)
  | [ "tables"; workers; work ] ->
      tables ~workers:(int_of_string workers) ~work
  | _ ->
      prerr_endline
        "usage: layers.exe (serve cold JOBS WORK | serve warm JOBS WORK \
         CACHEDIR | tables WORKERS WORK)";
      exit 2
