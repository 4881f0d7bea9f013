package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeed is the seed whose per-op result digests are pinned in
// expected/<workload>.txt.
const defaultSeed = 1

//go:embed expected/*.txt
var expectedFS embed.FS

// digest hashes a result's values exactly: floats by their shortest
// round-trip form, strings and lines verbatim.
func digest(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(h, "f%s|", strconv.FormatFloat(x, 'g', -1, 64))
		case []float64:
			for _, f := range x {
				fmt.Fprintf(h, "f%s,", strconv.FormatFloat(f, 'g', -1, 64))
			}
			h.Write([]byte("|"))
		case int:
			fmt.Fprintf(h, "i%d|", x)
		case string:
			fmt.Fprintf(h, "s%d:%s|", len(x), x)
		case []string:
			for _, s := range x {
				fmt.Fprintf(h, "s%d:%s,", len(s), s)
			}
			h.Write([]byte("|"))
		default:
			panic(fmt.Sprintf("digest: unsupported %T", v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// loadExpected returns the pinned digests of a workload's first ops,
// or nil for any seed but the default one.
func loadExpected(workload string, seed int64) ([]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	b, err := expectedFS.ReadFile("expected/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	return strings.Fields(string(b)), nil
}

func checkExpected(exp []string, i int, d string) error {
	if i < len(exp) && exp[i] != d {
		return fmt.Errorf("result digest %s, expected %s", d, exp[i])
	}
	return nil
}

// writeExpected records digests as expected/<workload>.txt under dir.
func writeExpected(dir, workload string, digests []string) error {
	f, err := os.Create(filepath.Join(dir, workload+".txt"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, d := range digests {
		fmt.Fprintln(w, d)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
