package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"pak/internal/pps"
)

// systemDigest hashes everything an unfolded system exposes, in order:
// every node (parent, depth, env, locals, recorded acts, env action and
// the edge probability in exact RatString form) by NodeID, then every
// run (its node path and µ_T(r)) by RunID. Strings are length-prefixed
// so no two distinct systems can serialize to the same byte stream.
func systemDigest(sys *pps.System) string {
	h := sha256.New()
	num := func(n int) {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(int64(n)))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	strs := func(ss []string) {
		num(len(ss))
		for _, s := range ss {
			str(s)
		}
	}
	strs(sys.Agents())
	num(sys.NumNodes())
	for id := pps.NodeID(1); int(id) < sys.NumNodes(); id++ {
		num(int(sys.ParentOf(id)))
		num(sys.DepthOf(id))
		str(sys.EnvOf(id))
		strs(sys.LocalsOf(id))
		strs(sys.ActsOf(id))
		str(sys.EnvActOf(id))
		str(sys.EdgeProb(id).RatString())
	}
	num(sys.NumRuns())
	for r := pps.RunID(0); int(r) < sys.NumRuns(); r++ {
		num(sys.RunLen(r))
		for t := 0; t < sys.RunLen(r); t++ {
			num(int(sys.NodeAt(r, t)))
		}
		str(sys.RunProb(r).RatString())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unfoldGoldenSpecs is every registry scenario's default spec plus the
// n-agent squad at n = 2..4 over degenerate, even and awkward-denominator
// losses, in both variants, and two nsquad(4) losses that straddle the
// machine-word boundary of Build's run products: at 63/127 the largest
// run denominator is exactly 64 bits, at 1/128 it is 65 and at 1/1000003
// 181, so those runs take the big.Rat fallback.
func unfoldGoldenSpecs() []string {
	specs := Default().Names()
	for n := 2; n <= 4; n++ {
		for _, loss := range []string{"0", "1/2", "1", "63/127"} {
			for _, improved := range []bool{false, true} {
				specs = append(specs, fmt.Sprintf("nsquad(n=%d,loss=%s,improved=%t)", n, loss, improved))
			}
		}
	}
	for _, loss := range []string{"1/128", "1/1000003"} {
		for _, improved := range []bool{false, true} {
			specs = append(specs, fmt.Sprintf("nsquad(n=4,loss=%s,improved=%t)", loss, improved))
		}
	}
	return specs
}

// unfoldGolden pins the SHA-256 of every golden spec's system. The
// digests were recorded before the unfold's memoisation and sharing
// (per-local-state AgentStep, shared delivery-pattern tables, interned
// stamped locals, the cumulative run product) existed: any change to a
// node, an edge probability or the run order shows up here.
var unfoldGolden = map[string]string{
	"consensus":                                 "2e23f8bbdce383423869e90bd924a83fa0937fca9520cc37e08b2731e3d2605d",
	"figure1":                                   "bbad50b8e7179329d8e456f0d2d0b4e53dd1747a0df2ab64b64046a2bf714652",
	"fsquad":                                    "f3852f307ba7b5a94a5e58bd963ea38dedc63127ea8d394f42479c1cbeaa5ed8",
	"mutex":                                     "eb0cd22f460ef944c938dbc79018eb2a8c264a6192b5f2ba6a3bc214e9679e25",
	"nsquad":                                    "4ef3640ae529729266797e3e34c79c26e5fb7902bf47f561cf56f539645b9da0",
	"random":                                    "f7ee8985509df878c90d783841c2833e64131ce2f3157ab81f64ae1c8bf33724",
	"that":                                      "dc6aebac1d8d548a6b09226a91837b1efbb7b2c87eb9e5c2f379737cd5f8eca8",
	"nsquad(n=2,loss=0,improved=false)":         "dc7dc9cfbe9d510a97a87e875d162afcebe1a808841371a0821b0f55cd2c3988",
	"nsquad(n=2,loss=0,improved=true)":          "dc7dc9cfbe9d510a97a87e875d162afcebe1a808841371a0821b0f55cd2c3988",
	"nsquad(n=2,loss=1/2,improved=false)":       "b4208da397243377f55112a250dc2ab5944b082aa1918b4299c2da3bc4ea9d3a",
	"nsquad(n=2,loss=1/2,improved=true)":        "c152ee9b622d85c76f533b2d34fe3807be2a4ac095e0d0a1fe3954268bde40c6",
	"nsquad(n=2,loss=1,improved=false)":         "edb90da717649581ed82914ee773cdf7dd6dcc9e868417af93c75f22fb1cc092",
	"nsquad(n=2,loss=1,improved=true)":          "edb90da717649581ed82914ee773cdf7dd6dcc9e868417af93c75f22fb1cc092",
	"nsquad(n=2,loss=63/127,improved=false)":    "6d446e051ef2db062b427288894b176a27f8d5d7abc33f54353fdd8099837bd0",
	"nsquad(n=2,loss=63/127,improved=true)":     "00a1d40cd94a8e8648a4c3b37e9f336e69b1b3897f24b08445cd67883e9e7849",
	"nsquad(n=3,loss=0,improved=false)":         "06289569b85d0a14dd571eaddd4cea23dc8099098a157d788e0dca63f2aa48d9",
	"nsquad(n=3,loss=0,improved=true)":          "06289569b85d0a14dd571eaddd4cea23dc8099098a157d788e0dca63f2aa48d9",
	"nsquad(n=3,loss=1/2,improved=false)":       "34c489c6a495cbeb1387b6eb4a7a79db829c595c984fdc1bbf49ad4f40026ecf",
	"nsquad(n=3,loss=1/2,improved=true)":        "e7037a67a8ae5579dc61163d755cb11858faa3b12dad62b4962b36a252692b5e",
	"nsquad(n=3,loss=1,improved=false)":         "3e0f55dc1ae448d09216e6a6d7ddfefc024be8c9afc15c3d9e72dd482fbbc000",
	"nsquad(n=3,loss=1,improved=true)":          "3e0f55dc1ae448d09216e6a6d7ddfefc024be8c9afc15c3d9e72dd482fbbc000",
	"nsquad(n=3,loss=63/127,improved=false)":    "4555ca7c9bda439cf6248f9b43283b096ce1d0d4a9fb09f3d58747a0d129b601",
	"nsquad(n=3,loss=63/127,improved=true)":     "b0dc8fd6ec2f6551d0f444b76961c53de2f17f790a0c03a515d07b3a23c6af57",
	"nsquad(n=4,loss=0,improved=false)":         "0a3c453305dcf045d2a9e8488619f822cae4b157963508b3a911359c95188c68",
	"nsquad(n=4,loss=0,improved=true)":          "0a3c453305dcf045d2a9e8488619f822cae4b157963508b3a911359c95188c68",
	"nsquad(n=4,loss=1/2,improved=false)":       "7702fd39571a87a26c32449d675e2a2d100c35a45b7f3af4f5e6f3622b81cf21",
	"nsquad(n=4,loss=1/2,improved=true)":        "e95f2effa85d948d42ea4354e4c3704b9719a00f1fe2c7664d6e27d57b5032f5",
	"nsquad(n=4,loss=1,improved=false)":         "bb16a4c80571db36f591bea4215cbffe72f9b9a80d8118906bafca9d2f73fded",
	"nsquad(n=4,loss=1,improved=true)":          "bb16a4c80571db36f591bea4215cbffe72f9b9a80d8118906bafca9d2f73fded",
	"nsquad(n=4,loss=63/127,improved=false)":    "9a7ef95fe6c0983f21b191f6c7c7e01a15eb18f6d0ea80dd087998b53a550bc9",
	"nsquad(n=4,loss=63/127,improved=true)":     "500622856cdc411909067f1f184953d2b298662d2490dde5a6bbffca2cc2c79f",
	"nsquad(n=4,loss=1/128,improved=false)":     "04f67ec066354f70caff7ab491bf730f8c7a9ea762c8caba94fa389a727ebe7e",
	"nsquad(n=4,loss=1/128,improved=true)":      "343e65237fcfb84bb7bd5ff60246e7788ef0fcb2e1f920610c59929844582f4d",
	"nsquad(n=4,loss=1/1000003,improved=false)": "77a4e34679427d2aba03f41ab19d8ce3555a083680fd60516b8fe6e0b058bc3f",
	"nsquad(n=4,loss=1/1000003,improved=true)":  "14e15cd7094b6927b4eb082d63c9cfe46bb286c2686cb59f12fd01b564867fcd",
}

func TestUnfoldDigestsUnchanged(t *testing.T) {
	for _, spec := range unfoldGoldenSpecs() {
		sys, err := Default().Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got := systemDigest(sys)
		if want := unfoldGolden[spec]; got != want {
			t.Errorf("%s: digest %s, want %s", spec, got, want)
		}
	}
}
