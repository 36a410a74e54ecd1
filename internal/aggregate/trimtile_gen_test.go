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

// genTrimTileAsm writes the two AVX2 tile kernels, trimTileAVX2 and
// trimTileWeightedAVX2: each has one block per member count
// n = 3 … tileVecMaxN, a loop over groups of four lanes that loads the
// n rows, runs sortTile's insertion network on them and sums the kept
// ranks. Registers: Y0 … Y(n−1) the rows, Y12 the compare mask and
// later the sum, Y13 the swap temporary; DI out, SI the row pointers,
// DX m, R8 the byte limit, AX the byte offset of the group, R9 the row
// being loaded. The unweighted kernel keeps +Inf in Y14 and the divisor
// in Y15. The weighted one has no register left for n weight rows, so
// it keeps them in a 32-byte aligned stack tile at R11, +Inf in the
// tile's first row and the weights at R10, and uses Y14 and Y15 to
// exchange weight rows and, at the end, to sum the kept weights.
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
	genTrimTileDispatch(p, "n")
	for n := 3; n <= tileVecMaxN; n++ {
		genTrimTileBlock(p, n, false)
	}
	p("")
	p("// func trimTileWeightedAVX2(out *float64, rows *[tileVecMaxN]*float64, weights *float64, n, m, lanes int)")
	p("//")
	p("// trimTileAVX2's network with a weight row beside each value row: row")
	p("// i's weight is broadcast into its row of the stack tile as the value")
	p("// row loads, and every compare-exchange also exchanges the two weight")
	p("// rows under its mask (the low weight a VBLENDVPD, the high one the")
	p("// XOR of both weights with the low), so each weight stays with its")
	p("// value, tied values in input order. Ranks m … n-m-1 add w·v (VMULPD,")
	p("// then VADDPD) and w onto +0.0 in rank order, and one VDIVPD divides")
	p("// the two sums: the weighted sort path's arithmetic.")
	p("TEXT ·trimTileWeightedAVX2(SB), NOSPLIT, $%d-48", 32*(tileVecMaxN+2))
	p("\tMOVQ out+0(FP), DI")
	p("\tMOVQ rows+8(FP), SI")
	p("\tMOVQ weights+16(FP), R10")
	p("\tMOVQ n+24(FP), CX")
	p("\tMOVQ m+32(FP), DX")
	p("\tMOVQ lanes+40(FP), R8")
	p("\tSHLQ $3, R8")
	p("\tLEAQ 31(SP), R11")
	p("\tANDQ $~31, R11")
	p("\tMOVQ $0x7ff0000000000000, AX")
	p("\tVMOVQ AX, X14")
	p("\tVBROADCASTSD X14, Y14")
	p("\tVMOVUPD Y14, (R11)")
	p("\tXORQ AX, AX")
	genTrimTileDispatch(p, "w")
	for n := 3; n <= tileVecMaxN; n++ {
		genTrimTileBlock(p, n, true)
	}
	return b.Bytes()
}

// genTrimTileDispatch writes the jump to the block for n, whose labels
// start with prefix.
func genTrimTileDispatch(p func(string, ...any), prefix string) {
	for n := 3; n <= tileVecMaxN; n++ {
		p("\tCMPQ CX, $%d", n)
		p("\tJEQ  %s%d", prefix, n)
	}
	p("\tRET // unreachable: 3 ≤ n ≤ tileVecMaxN")
}

// genTrimTileBlock writes the loop for n members, weighted or not.
func genTrimTileBlock(p func(string, ...any), n int, weighted bool) {
	// reg[r] is the register holding rank r (row r before the network);
	// tmp is the free one a compare-exchange writes its low value to.
	// The weight of rank r lives in stack row r+1, which is never
	// renamed: both of an exchange's weight rows are rewritten.
	reg := make([]int, n)
	for r := range reg {
		reg[r] = r
	}
	tmp := 13
	inf, label := "Y14", fmt.Sprintf("n%d", n)
	if weighted {
		inf, label = "(R11)", fmt.Sprintf("w%d", n)
	}
	wrow := func(r int) string { return fmt.Sprintf("%d(R11)", 32*(r+1)) }
	load := func(i int) {
		p("\tMOVQ %d(SI), R9", 8*i)
		p("\tVMOVUPD (R9)(AX*1), Y%d", i)
		p("\tVCMPPD $3, Y%d, Y%d, Y12", i, i)
		p("\tVBLENDVPD Y12, %s, Y%d, Y%d", inf, i, i)
		if weighted {
			p("\tVBROADCASTSD %d(R10), Y14", 8*i)
			p("\tVMOVUPD Y14, %s", wrow(i))
		}
	}
	exchange := func(lo, hi int) {
		a, c := reg[lo], reg[hi]
		p("\tVCMPPD $0x1e, Y%d, Y%d, Y12", c, a)
		p("\tVBLENDVPD Y12, Y%d, Y%d, Y%d", c, a, tmp)
		p("\tVBLENDVPD Y12, Y%d, Y%d, Y%d", a, c, c)
		reg[lo], tmp = tmp, a
		if weighted {
			p("\tVMOVUPD %s, Y14", wrow(lo))
			p("\tVBLENDVPD Y12, %s, Y14, Y15", wrow(hi))
			p("\tVXORPD %s, Y14, Y14", wrow(hi))
			p("\tVXORPD Y15, Y14, Y14")
			p("\tVMOVUPD Y15, %s", wrow(lo))
			p("\tVMOVUPD Y14, %s", wrow(hi))
		}
	}
	p("")
	p("%s:", label)
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
		p("\tJEQ  %sm%d", label, m)
	}
	for m := maxM; m >= 1; m-- {
		if m < maxM {
			p("%sm%d:", label, m)
		}
		p("\tVXORPD Y12, Y12, Y12")
		if weighted {
			p("\tVXORPD Y14, Y14, Y14")
		}
		for r := m; r < n-m; r++ {
			if weighted {
				p("\tVMULPD %s, Y%d, Y15", wrow(r), reg[r])
				p("\tVADDPD Y15, Y12, Y12")
				p("\tVADDPD %s, Y14, Y14", wrow(r))
			} else {
				p("\tVADDPD Y%d, Y12, Y12", reg[r])
			}
		}
		if m > 1 {
			p("\tJMP  %sstore", label)
		}
	}
	p("%sstore:", label)
	if weighted {
		p("\tVDIVPD Y14, Y12, Y12")
	} else {
		p("\tVDIVPD Y15, Y12, Y12")
	}
	p("\tVMOVUPD Y12, (DI)(AX*1)")
	p("\tADDQ $32, AX")
	p("\tCMPQ AX, R8")
	p("\tJB   %s", label)
	p("\tVZEROUPPER")
	p("\tRET")
}
