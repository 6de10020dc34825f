(* Crash tolerance ([Harness.Robust]): exception classification, transient
   retry, the append-only checkpoint store (including crash-truncated
   tails and configuration mismatches), and cell isolation — one failing
   cell never takes its siblings down. *)

module Lir = Ir.Lir

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the store is global; every test that arms it must disarm it *)
let with_checkpoint ?meta path f =
  Harness.Robust.set_checkpoint ?meta (Some path);
  Fun.protect ~finally:(fun () -> Harness.Robust.set_checkpoint None) f

let tmp name =
  let path = Filename.temp_file ("isf_" ^ name) ".ckpt" in
  Sys.remove path;
  path

(* ---- classification ---- *)

let test_classify () =
  let cls = Harness.Robust.classify in
  check Alcotest.string "injected fault" "fault"
    (cls (Vm.Interp.Runtime_error "injected fault: trap at cycle 9 (plan seed 1)"));
  check Alcotest.string "fuel" "fuel"
    (cls (Vm.Interp.Runtime_error "out of fuel after 100 cycles"));
  check Alcotest.string "watchdog" "timeout"
    (cls (Vm.Interp.Runtime_error "wall-clock watchdog expired after 5 cycles"));
  check Alcotest.string "other VM error" "bug"
    (cls (Vm.Interp.Runtime_error "division by zero"));
  check Alcotest.string "Transient" "transient"
    (cls (Harness.Robust.Transient "flaky"));
  check Alcotest.string "Sys_error" "transient" (cls (Sys_error "EINTR"));
  check Alcotest.string "anything else" "bug" (cls (Failure "boom"))

(* ---- transient retry ---- *)

let test_transient_retries_then_succeeds () =
  let runs = ref 0 in
  let r =
    Harness.Robust.cell ~key:"t/retry-ok" (fun () ->
        incr runs;
        if !runs < 3 then raise (Harness.Robust.Transient "not yet");
        42)
  in
  check_bool "eventually Ok" true (r = Ok 42);
  check_int "two retries consumed" 3 !runs

let test_transient_exhausts () =
  let runs = ref 0 in
  match
    Harness.Robust.cell ~retries:1 ~key:"t/retry-fail" (fun () ->
        incr runs;
        raise (Harness.Robust.Transient "always"))
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      check_int "initial attempt + 1 retry" 2 !runs;
      check_int "attempts recorded" 2 f.Harness.Robust.attempts;
      check Alcotest.string "still classified transient" "transient"
        f.Harness.Robust.classification

let test_bug_not_retried () =
  let runs = ref 0 in
  match
    Harness.Robust.cell ~key:"t/bug" (fun () ->
        incr runs;
        failwith "deterministic bug")
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      check_int "no retry for a deterministic bug" 1 !runs;
      check Alcotest.string "classified bug" "bug"
        f.Harness.Robust.classification;
      check Alcotest.string "message preserved" "deterministic bug"
        f.Harness.Robust.message

(* ---- cell isolation ---- *)

(* one cell blows the VM watchdog; its siblings complete *)
let test_sibling_cells_survive () =
  let cell_of i =
    Harness.Robust.cell ~key:(Printf.sprintf "t/iso/%d" i) (fun () ->
        if i = 1 then begin
          let classes, funcs = Helpers.build Helpers.loop_src in
          ignore
            (Vm.Interp.run
               ~deadline:(Unix.gettimeofday () -. 1.0)
               ~deadline_poll:1_000
               (Vm.Program.link classes ~funcs)
               ~entry:{ Lir.mclass = "Main"; mname = "main" }
               ~args:[ 1_000_000 ] Vm.Interp.null_hooks)
        end;
        float_of_int i)
  in
  let outcomes = Harness.Pool.map ~jobs:3 cell_of [ 0; 1; 2 ] in
  check
    Alcotest.(list (float 0.0))
    "siblings completed" [ 0.0; 2.0 ]
    (Harness.Robust.oks outcomes);
  match Harness.Robust.errors outcomes with
  | [ f ] ->
      check Alcotest.string "runaway classified timeout" "timeout"
        f.Harness.Robust.classification;
      check Alcotest.string "under its own key" "t/iso/1" f.Harness.Robust.key
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

(* ---- checkpoint store ---- *)

let test_checkpoint_roundtrip () =
  let path = tmp "roundtrip" in
  let runs = ref 0 in
  let body () =
    incr runs;
    3.25
  in
  with_checkpoint ~meta:"m" path (fun () ->
      check_bool "computed" true
        (Harness.Robust.cell ~key:"t/ck" body = Ok 3.25);
      check_bool "cached in memory" true
        (Harness.Robust.cell ~key:"t/ck" body = Ok 3.25);
      check_int "body ran once" 1 !runs);
  (* a fresh arm must reload the persisted cell from disk *)
  with_checkpoint ~meta:"m" path (fun () ->
      check_bool "cached on disk" true
        (Harness.Robust.cell ~key:"t/ck" body = Ok 3.25);
      check_int "body still ran once" 1 !runs);
  Sys.remove path

let test_checkpoint_failures_not_persisted () =
  let path = tmp "nofail" in
  let runs = ref 0 in
  with_checkpoint path (fun () ->
      match
        Harness.Robust.cell ~key:"t/fail" (fun () ->
            incr runs;
            failwith "broken")
      with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error _ -> ());
  with_checkpoint path (fun () ->
      check_bool "failed cell is re-attempted on resume" true
        (Harness.Robust.cell ~key:"t/fail" (fun () ->
             incr runs;
             7.0)
        = Ok 7.0));
  check_int "ran once per arm" 2 !runs;
  Sys.remove path

let test_checkpoint_truncated_tail () =
  let path = tmp "trunc" in
  with_checkpoint path (fun () ->
      check_bool "cell 1" true (Harness.Robust.cell ~key:"t/a" (fun () -> 1.0) = Ok 1.0);
      check_bool "cell 2" true (Harness.Robust.cell ~key:"t/b" (fun () -> 2.0) = Ok 2.0));
  (* simulate a kill mid-write: chop bytes off the final record *)
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes - 5)));
  let runs = ref 0 in
  with_checkpoint path (fun () ->
      check_bool "intact record survives" true
        (Harness.Robust.cell ~key:"t/a" (fun () ->
             incr runs;
             -1.0)
        = Ok 1.0);
      check_bool "truncated record is recomputed" true
        (Harness.Robust.cell ~key:"t/b" (fun () ->
             incr runs;
             2.0)
        = Ok 2.0);
      check_int "only the lost cell re-ran" 1 !runs);
  Sys.remove path

(* The resume after a tear must cut the torn record away before it
   appends: a record appended after undecodable bytes would be misread
   by the resume after that. *)
let test_checkpoint_double_resume () =
  let path = tmp "double" in
  let cell key v = ignore (Harness.Robust.cell ~key (fun () -> v)) in
  with_checkpoint path (fun () ->
      cell "t/a" 1.0;
      cell "t/b" 2.0);
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes - 5)));
  with_checkpoint path (fun () ->
      cell "t/b" 2.0;
      cell "t/c" 3.0);
  let runs = ref 0 in
  with_checkpoint path (fun () ->
      check
        Alcotest.(list (float 0.0))
        "all three cells come back exactly" [ 1.0; 2.0; 3.0 ]
        (List.map
           (fun key ->
             Harness.Robust.get_or ~default:nan
               (Harness.Robust.cell ~key (fun () ->
                    incr runs;
                    nan)))
           [ "t/a"; "t/b"; "t/c" ]);
      check_int "none re-ran" 0 !runs);
  Sys.remove path

let test_checkpoint_meta_mismatch () =
  let path = tmp "meta" in
  with_checkpoint ~meta:"scale=1 engine=fast" path (fun () ->
      ignore (Harness.Robust.cell ~key:"t/m" (fun () -> 1.0)));
  check_bool "mismatched configuration refuses to resume" true
    (try
       Harness.Robust.set_checkpoint ~meta:"scale=2 engine=fast" (Some path);
       Harness.Robust.set_checkpoint None;
       false
     with Failure _ -> true);
  Sys.remove path

(* resuming a real table from its checkpoint must render byte-identically
   to the uninterrupted run *)
let test_table_resume_byte_identical () =
  let benches = [ Workloads.Suite.find "jess"; Workloads.Suite.find "db" ] in
  let table () =
    Harness.Table1.to_string (Harness.Table1.run ~scale:1 ~benches ())
  in
  let fresh = table () in
  let path = tmp "table" in
  let first = with_checkpoint ~meta:"t1" path table in
  let resumed = with_checkpoint ~meta:"t1" path table in
  check Alcotest.string "checkpointed == plain" fresh first;
  check Alcotest.string "resumed == plain" fresh resumed;
  Sys.remove path

(* ---- rendering ---- *)

let test_report_rendering () =
  let f =
    {
      Harness.Robust.key = "table1/db/call-edge";
      classification = "fault";
      attempts = 1;
      message = "injected fault: trap at cycle 9 (plan seed 1)";
      backtrace = "";
    }
  in
  let r = Harness.Robust.report [ f ] in
  let has sub =
    let n = String.length sub and h = String.length r in
    let rec go i = i + n <= h && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "header counts failures" true (has "1 cell(s) failed");
  check_bool "names the cell" true (has "ERR table1/db/call-edge");
  check_bool "names the class" true (has "[fault after 1 attempt]");
  check Alcotest.string "ok cells render through" "1.5"
    (Harness.Robust.cell_str (Printf.sprintf "%.1f") (Ok 1.5));
  check Alcotest.string "failed cells render ERR" "ERR"
    (Harness.Robust.cell_str (Printf.sprintf "%.1f") (Error f))

let suite =
  [
    ( "robust",
      [
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "transient retries then succeeds" `Quick
          test_transient_retries_then_succeeds;
        Alcotest.test_case "transient retries exhaust" `Quick
          test_transient_exhausts;
        Alcotest.test_case "bugs are not retried" `Quick test_bug_not_retried;
        Alcotest.test_case "sibling cells survive a runaway" `Quick
          test_sibling_cells_survive;
        Alcotest.test_case "checkpoint roundtrip" `Quick
          test_checkpoint_roundtrip;
        Alcotest.test_case "failures are not persisted" `Quick
          test_checkpoint_failures_not_persisted;
        Alcotest.test_case "truncated tail tolerated" `Quick
          test_checkpoint_truncated_tail;
        Alcotest.test_case "torn tail cut before a resumed run appends" `Quick
          test_checkpoint_double_resume;
        Alcotest.test_case "meta mismatch refused" `Quick
          test_checkpoint_meta_mismatch;
        Alcotest.test_case "table resume byte-identical" `Quick
          test_table_resume_byte_identical;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
      ] );
  ]
