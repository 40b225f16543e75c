(* Tests for the GPU stream-processor model: memory objects, the
   gather-only dispatch contract, and bus/shader cost accounting. *)

module Config = Gpustream.Config
module Ledger = Gpustream.Ledger
module Machine = Gpustream.Machine
module Vec4f = Vecmath.Vec4f
module Op = Isa.Op
module Block = Isa.Block

let cfg = Config.geforce_7900gtx

let body_block =
  Block.of_instrs
    [ { Block.op = Op.Load; deps = [] }; { Block.op = Op.Fmadd; deps = [] } ]

let prologue_block = Block.of_instrs [ { Block.op = Op.Store; deps = [] } ]

let make_machine () = Machine.create cfg

let test_config_valid () = Config.validate cfg

let test_config_invalid () =
  Alcotest.(check bool) "bad efficiency rejected" true
    (try
       Config.validate { cfg with Config.shader_efficiency = 0.0 };
       false
     with Invalid_argument _ -> true)

let test_vram_accounting () =
  let m = make_machine () in
  let _t = Machine.create_texture m ~name:"t" ~texels:1024 in
  Alcotest.(check int) "float4 texels" (1024 * 16) (Machine.vram_used m);
  Alcotest.(check bool) "oversubscription rejected" true
    (try
       ignore
         (Machine.create_texture m ~name:"huge"
            ~texels:(cfg.Config.vram_bytes / 16));
       false
     with Invalid_argument _ -> true)

let test_free_releases_vram () =
  let m = make_machine () in
  let before = Machine.vram_used m in
  let t = Machine.create_texture m ~name:"t" ~texels:1024 in
  Alcotest.(check bool) "allocated" true (Machine.vram_used m > before);
  Machine.free_texture m t;
  Alcotest.(check int) "released" before (Machine.vram_used m)

let test_texture_size_limit () =
  let m = make_machine () in
  Alcotest.(check bool) "over-limit texture rejected" true
    (try
       ignore
         (Machine.create_texture m ~name:"too-big"
            ~texels:(cfg.Config.max_texels + 1));
       false
     with Invalid_argument _ -> true)

let test_upload_readback_roundtrip () =
  let m = make_machine () in
  let tex = Machine.create_texture m ~name:"pos" ~texels:4 in
  let rt = Machine.create_render_target m ~name:"out" ~texels:4 in
  let data =
    Array.init 4 (fun i ->
        let v = float_of_int i in
        Vec4f.make v v v v)
  in
  Machine.upload m tex data;
  let shader =
    Machine.compile m ~name:"copy" ~body:body_block ~prologue:prologue_block
  in
  Machine.dispatch m shader ~inputs:[ tex ] ~target:rt
    ~f:(fun s i -> Machine.sample s ~input:0 i)
    ();
  let back = Machine.readback m rt in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "texel copied" true (data.(i) = v))
    back

let test_upload_size_mismatch () =
  let m = make_machine () in
  let tex = Machine.create_texture m ~name:"pos" ~texels:4 in
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       Machine.upload m tex [| Vec4f.zero |];
       false
     with Invalid_argument _ -> true)

let test_sampler_bounds () =
  let m = make_machine () in
  let tex = Machine.create_texture m ~name:"pos" ~texels:4 in
  let rt = Machine.create_render_target m ~name:"out" ~texels:1 in
  let shader =
    Machine.compile m ~name:"bad" ~body:body_block ~prologue:prologue_block
  in
  Alcotest.(check bool) "bad input slot raises" true
    (try
       Machine.dispatch m shader ~inputs:[ tex ] ~target:rt
         ~f:(fun s _ -> Machine.sample s ~input:1 0)
         ();
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad texel index raises" true
    (try
       Machine.dispatch m shader ~inputs:[ tex ] ~target:rt
         ~f:(fun s _ -> Machine.sample s ~input:0 99)
         ();
       false
     with Invalid_argument _ -> true)

let test_max_inputs_enforced () =
  let m = make_machine () in
  let texs =
    List.init (cfg.Config.max_inputs + 1) (fun i ->
        Machine.create_texture m ~name:(Printf.sprintf "t%d" i) ~texels:1)
  in
  let rt = Machine.create_render_target m ~name:"out" ~texels:1 in
  let shader =
    Machine.compile m ~name:"many" ~body:body_block ~prologue:prologue_block
  in
  Alcotest.(check bool) "too many inputs rejected" true
    (try
       Machine.dispatch m shader ~inputs:texs ~target:rt
         ~f:(fun _ _ -> Vec4f.zero)
         ();
       false
     with Invalid_argument _ -> true)

let test_ledger_invariant () =
  let m = make_machine () in
  let tex = Machine.create_texture m ~name:"pos" ~texels:16 in
  let rt = Machine.create_render_target m ~name:"out" ~texels:16 in
  Machine.upload m tex (Array.make 16 Vec4f.zero);
  let shader =
    Machine.compile m ~name:"s" ~body:body_block ~prologue:prologue_block
  in
  Machine.dispatch m shader ~inputs:[ tex ] ~target:rt ~loop_trip:16
    ~f:(fun _ _ -> Vec4f.zero)
    ();
  ignore (Machine.readback m rt);
  Machine.cpu_charge m ~seconds:0.001;
  Alcotest.(check (float 1e-12)) "ledger total = machine time"
    (Machine.time m)
    (Ledger.total (Machine.ledger m))

let test_transfer_asymmetry () =
  let m = make_machine () in
  let tex = Machine.create_texture m ~name:"pos" ~texels:65536 in
  let rt = Machine.create_render_target m ~name:"out" ~texels:65536 in
  Machine.upload m tex (Array.make 65536 Vec4f.zero);
  ignore (Machine.readback m rt);
  let l = Machine.ledger m in
  Alcotest.(check bool) "readback slower than upload" true
    (Ledger.get l Ledger.Readback > Ledger.get l Ledger.Upload)

let test_loop_trip_scales_shader_time () =
  let time_with trip =
    let m = make_machine () in
    let tex = Machine.create_texture m ~name:"pos" ~texels:64 in
    let rt = Machine.create_render_target m ~name:"out" ~texels:64 in
    let shader =
      Machine.compile m ~name:"s" ~body:body_block ~prologue:prologue_block
    in
    Machine.dispatch m shader ~inputs:[ tex ] ~target:rt ~loop_trip:trip
      ~f:(fun _ _ -> Vec4f.zero)
      ();
    Ledger.get (Machine.ledger m) Ledger.Shader
  in
  let t1 = time_with 10 and t2 = time_with 20 in
  Alcotest.(check bool) "longer loops cost more" true (t2 > t1);
  Alcotest.(check bool) "roughly linear" true
    (t2 /. t1 > 1.7 && t2 /. t1 < 2.1)

let test_jit_charged_once_per_compile () =
  let m = make_machine () in
  let before = Ledger.get (Machine.ledger m) Ledger.Setup in
  let _ =
    Machine.compile m ~name:"s" ~body:body_block ~prologue:prologue_block
  in
  let after = Ledger.get (Machine.ledger m) Ledger.Setup in
  Alcotest.(check (float 1e-12)) "jit cost" cfg.Config.jit_seconds
    (after -. before)

let test_reset_frees_vram () =
  let m = make_machine () in
  let _ = Machine.create_texture m ~name:"t" ~texels:256 in
  Machine.reset m;
  Alcotest.(check int) "vram freed" 0 (Machine.vram_used m);
  Alcotest.(check (float 1e-12)) "clock cleared" 0.0 (Machine.time m)

let tests =
  ( "gpu",
    [ Alcotest.test_case "config valid" `Quick test_config_valid;
      Alcotest.test_case "config invalid" `Quick test_config_invalid;
      Alcotest.test_case "vram accounting" `Quick test_vram_accounting;
      Alcotest.test_case "free releases vram" `Quick test_free_releases_vram;
      Alcotest.test_case "texture size limit" `Quick test_texture_size_limit;
      Alcotest.test_case "upload/readback roundtrip" `Quick
        test_upload_readback_roundtrip;
      Alcotest.test_case "upload size mismatch" `Quick
        test_upload_size_mismatch;
      Alcotest.test_case "sampler bounds" `Quick test_sampler_bounds;
      Alcotest.test_case "max inputs enforced" `Quick test_max_inputs_enforced;
      Alcotest.test_case "ledger invariant" `Quick test_ledger_invariant;
      Alcotest.test_case "transfer asymmetry" `Quick test_transfer_asymmetry;
      Alcotest.test_case "loop trip scales shader time" `Quick
        test_loop_trip_scales_shader_time;
      Alcotest.test_case "jit charged per compile" `Quick
        test_jit_charged_once_per_compile;
      Alcotest.test_case "reset frees vram" `Quick test_reset_frees_vram ] )
