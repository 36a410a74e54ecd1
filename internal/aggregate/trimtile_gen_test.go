package aggregate

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateAsm = flag.Bool("update", false, "rewrite trimtile_amd64.s from its generator")

// TestTrimTileAsmIsGenerated holds trimtile_amd64.s to genTrimTileAsm,
// the one place the AVX2 tile kernel's insertion network is written;
// -update rewrites the file (go generate runs it so).
func TestTrimTileAsmIsGenerated(t *testing.T) {
	const path = "trimtile_amd64.s"
	want := genTrimTileAsm()
	if *updateAsm {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from its generator: run go generate ./internal/aggregate", path)
	}
}

// genTrimTileAsm writes trimTileAVX2: one block per member count
// n = 3 … tileVecMaxN, each a loop over groups of four lanes that loads
// the n rows, runs sortTile's insertion network on them and sums the
// kept ranks. Registers: Y0 … Y(n−1) the rows, Y12 the compare mask and
// later the sum, Y13 the swap temporary, Y14 +Inf, Y15 the divisor;
// DI out, SI the row pointers, DX m, R8 the byte limit, AX the byte
// offset of the group, R9 the row being loaded.
func genTrimTileAsm() []byte {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("// Code generated by TestTrimTileAsmIsGenerated -update (trimtile_gen_test.go); DO NOT EDIT.")
	p("")
	p(`#include "textflag.h"`)
	p("")
	p("// func trimTileAVX2(out *float64, rows *[tileVecMaxN]*float64, n, m, lanes int, div float64)")
	p("//")
	p("// Per group of four lanes: each row is loaded from its member's vector")
	p("// and its NaNs blended to +Inf (VCMPPD UNORD_Q, VBLENDVPD), and row i")
	p("// is inserted by the compare-exchanges (q-1, q), q = i … 1, each a")
	p("// VCMPPD GT_OQ and two VBLENDVPD that select the two bit patterns; the")
	p("// swap temporary is renamed instead of moved. No VMINPD or VMAXPD:")
	p("// they would order -0 before +0. Ranks m … n-m-1 are added to +0.0 in")
	p("// rank order and the sum divided once by div, sortTile's arithmetic.")
	p("TEXT ·trimTileAVX2(SB), NOSPLIT, $0-48")
	p("\tMOVQ out+0(FP), DI")
	p("\tMOVQ rows+8(FP), SI")
	p("\tMOVQ n+16(FP), CX")
	p("\tMOVQ m+24(FP), DX")
	p("\tMOVQ lanes+32(FP), R8")
	p("\tSHLQ $3, R8")
	p("\tVBROADCASTSD div+40(FP), Y15")
	p("\tMOVQ $0x7ff0000000000000, AX")
	p("\tVMOVQ AX, X14")
	p("\tVBROADCASTSD X14, Y14")
	p("\tXORQ AX, AX")
	for n := 3; n <= tileVecMaxN; n++ {
		p("\tCMPQ CX, $%d", n)
		p("\tJEQ  n%d", n)
	}
	p("\tRET // unreachable: 3 ≤ n ≤ tileVecMaxN")
	for n := 3; n <= tileVecMaxN; n++ {
		genTrimTileBlock(p, n)
	}
	return b.Bytes()
}

// genTrimTileBlock writes the loop for n members.
func genTrimTileBlock(p func(string, ...any), n int) {
	// reg[r] is the register holding rank r (row r before the network);
	// tmp is the free one a compare-exchange writes its low value to.
	reg := make([]int, n)
	for r := range reg {
		reg[r] = r
	}
	tmp := 13
	load := func(i int) {
		p("\tMOVQ %d(SI), R9", 8*i)
		p("\tVMOVUPD (R9)(AX*1), Y%d", i)
		p("\tVCMPPD $3, Y%d, Y%d, Y12", i, i)
		p("\tVBLENDVPD Y12, Y14, Y%d, Y%d", i, i)
	}
	exchange := func(lo, hi int) {
		a, c := reg[lo], reg[hi]
		p("\tVCMPPD $0x1e, Y%d, Y%d, Y12", c, a)
		p("\tVBLENDVPD Y12, Y%d, Y%d, Y%d", c, a, tmp)
		p("\tVBLENDVPD Y12, Y%d, Y%d, Y%d", a, c, c)
		reg[lo], tmp = tmp, a
	}
	p("")
	p("n%d:", n)
	// sortTile's exchange (q−1, q) of step i first reads its inputs at
	// depth 2i−q−1, so emitting by depth (then step) keeps every
	// dependency while putting the independent exchanges next to each
	// other; exchanges on disjoint rows commute, so the network's
	// permutation is sortTile's. Row i loads at its first exchange's
	// depth, i−1.
	load(0)
	for depth := 0; depth <= 2*n-4; depth++ {
		if i := depth + 1; i < n {
			load(i)
		}
		for i := 1; i < n; i++ {
			if q := 2*i - 1 - depth; q >= 1 && q <= i {
				exchange(q-1, q)
			}
		}
	}
	maxM := (n - 1) / 2
	for m := 1; m < maxM; m++ {
		p("\tCMPQ DX, $%d", m)
		p("\tJEQ  n%dm%d", n, m)
	}
	for m := maxM; m >= 1; m-- {
		if m < maxM {
			p("n%dm%d:", n, m)
		}
		p("\tVXORPD Y12, Y12, Y12")
		for r := m; r < n-m; r++ {
			p("\tVADDPD Y%d, Y12, Y12", reg[r])
		}
		if m > 1 {
			p("\tJMP  n%dstore", n)
		}
	}
	p("n%dstore:", n)
	p("\tVDIVPD Y15, Y12, Y12")
	p("\tVMOVUPD Y12, (DI)(AX*1)")
	p("\tADDQ $32, AX")
	p("\tCMPQ AX, R8")
	p("\tJB   n%d", n)
	p("\tVZEROUPPER")
	p("\tRET")
}
