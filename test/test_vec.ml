(* Tests for the vecmath library: Vec3 algebra and the Vec4f texel. *)

module Vec3 = Vecmath.Vec3
module Vec4f = Vecmath.Vec4f
module F32 = Sim_util.F32

let vec3 = Alcotest.testable Vec3.pp (Vec3.equal ~eps:1e-12)
let check_float = Alcotest.(check (float 1e-12))

let v3 = QCheck.Gen.(
    map3 Vec3.make (float_range (-100.) 100.) (float_range (-100.) 100.)
      (float_range (-100.) 100.))

let arb_v3 =
  QCheck.make ~print:(Format.asprintf "%a" Vec3.pp) v3

(* ---------------- Vec3 ---------------- *)

let test_vec3_add_sub () =
  let a = Vec3.make 1.0 2.0 3.0 and b = Vec3.make 4.0 5.0 6.0 in
  Alcotest.check vec3 "add" (Vec3.make 5.0 7.0 9.0) (Vec3.add a b);
  Alcotest.check vec3 "sub roundtrip" a (Vec3.sub (Vec3.add a b) b)

let test_vec3_dot_cross () =
  let x = Vec3.make 1.0 0.0 0.0 and y = Vec3.make 0.0 1.0 0.0 in
  check_float "orthogonal dot" 0.0 (Vec3.dot x y);
  Alcotest.check vec3 "x cross y = z" (Vec3.make 0.0 0.0 1.0) (Vec3.cross x y)

let test_vec3_norm () =
  check_float "3-4-5" 5.0 (Vec3.norm (Vec3.make 3.0 4.0 0.0));
  check_float "norm2" 25.0 (Vec3.norm2 (Vec3.make 3.0 4.0 0.0))

let test_vec3_normalize () =
  let n = Vec3.normalize (Vec3.make 0.0 2.0 0.0) in
  Alcotest.check vec3 "unit y" (Vec3.make 0.0 1.0 0.0) n;
  Alcotest.(check bool) "zero raises" true
    (try
       ignore (Vec3.normalize Vec3.zero);
       false
     with Invalid_argument _ -> true)

let test_vec3_lerp () =
  let a = Vec3.make 0.0 0.0 0.0 and b = Vec3.make 2.0 4.0 6.0 in
  Alcotest.check vec3 "midpoint" (Vec3.make 1.0 2.0 3.0) (Vec3.lerp a b 0.5)

let test_vec3_array_roundtrip () =
  let a = Vec3.make 1.5 (-2.5) 3.25 in
  Alcotest.check vec3 "roundtrip" a (Vec3.of_array (Vec3.to_array a));
  Alcotest.(check bool) "bad length raises" true
    (try
       ignore (Vec3.of_array [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

let vec3_cross_orthogonal_prop =
  QCheck.Test.make ~name:"cross product orthogonal to operands" ~count:300
    (QCheck.pair arb_v3 arb_v3)
    (fun (a, b) ->
      let c = Vec3.cross a b in
      abs_float (Vec3.dot a c) < 1e-6 && abs_float (Vec3.dot b c) < 1e-6)

let vec3_dot_scale_prop =
  QCheck.Test.make ~name:"dot is bilinear in scaling" ~count:300
    (QCheck.triple arb_v3 arb_v3 (QCheck.float_range (-10.) 10.))
    (fun (a, b, k) ->
      let lhs = Vec3.dot (Vec3.scale k a) b in
      let rhs = k *. Vec3.dot a b in
      abs_float (lhs -. rhs) <= 1e-7 *. (1.0 +. abs_float rhs))

let vec3_triangle_prop =
  QCheck.Test.make ~name:"triangle inequality" ~count:300
    (QCheck.pair arb_v3 arb_v3)
    (fun (a, b) ->
      Vec3.norm (Vec3.add a b) <= Vec3.norm a +. Vec3.norm b +. 1e-9)

(* ---------------- Vec4f ---------------- *)

let test_vec4f_lanes_rounded () =
  let v = Vec4f.make 0.1 0.2 0.3 0.4 in
  List.iter
    (fun i ->
      Alcotest.(check bool) "lane is f32" true (F32.is_f32 (Vec4f.lane v i)))
    [ 0; 1; 2; 3 ]

let test_vec4f_lane_access () =
  let v = Vec4f.make 1.0 2.0 3.0 4.0 in
  check_float "x" 1.0 v.Vec4f.a;
  check_float "w" 4.0 (Vec4f.w v);
  check_float "lane 2" 3.0 (Vec4f.lane v 2);
  Alcotest.(check bool) "lane 4 raises" true
    (try
       ignore (Vec4f.lane v 4);
       false
     with Invalid_argument _ -> true)

let test_vec4f_with_lane () =
  let v = Vec4f.with_lane Vec4f.zero 3 7.5 in
  check_float "set w" 7.5 (Vec4f.w v);
  check_float "others untouched" 0.0 (Vec4f.lane v 0)

let qcheck t = QCheck_alcotest.to_alcotest t

let tests =
  ( "vec",
    [ Alcotest.test_case "vec3 add/sub" `Quick test_vec3_add_sub;
      Alcotest.test_case "vec3 dot/cross" `Quick test_vec3_dot_cross;
      Alcotest.test_case "vec3 norm" `Quick test_vec3_norm;
      Alcotest.test_case "vec3 normalize" `Quick test_vec3_normalize;
      Alcotest.test_case "vec3 lerp" `Quick test_vec3_lerp;
      Alcotest.test_case "vec3 array roundtrip" `Quick
        test_vec3_array_roundtrip;
      qcheck vec3_cross_orthogonal_prop;
      qcheck vec3_dot_scale_prop;
      qcheck vec3_triangle_prop;
      Alcotest.test_case "vec4f lanes rounded" `Quick test_vec4f_lanes_rounded;
      Alcotest.test_case "vec4f lane access" `Quick test_vec4f_lane_access;
      Alcotest.test_case "vec4f with_lane" `Quick test_vec4f_with_lane ] )
