package auth

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzTokenFile writes the input as a token file and loads it. Nothing
// may panic. An accepted file resolves every token it lists to that
// entry's principal and role, and holds exactly that many. A Reload
// that refuses it keeps the previous tokens in force; one that accepts
// it rotates the previous ones out. The seeds are in
// testdata/fuzz/FuzzTokenFile.
func FuzzTokenFile(f *testing.F) {
	prev := Token{Token: "fuzz-previous", Principal: "previous", Role: RoleTenant}
	prevFile, err := json.Marshal(tokenFile{Tokens: []Token{prev}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tokens.json")
		write := func(b []byte) {
			if err := os.WriteFile(path, b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		write(prevFile)
		a, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		write(data)
		loaded, lerr := LoadFile(path)
		rerr := a.Reload()
		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("LoadFile err %v, but Reload err %v", lerr, rerr)
		}
		if rerr != nil {
			if p, ok := a.Lookup(prev.Token); !ok || p != (Principal{prev.Principal, prev.Role}) || a.Len() != 1 {
				t.Fatalf("a refused reload (%v) dropped the previous tokens: %+v %v, %d loaded", rerr, p, ok, a.Len())
			}
			return
		}
		var tf tokenFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("accepted a file that does not decode: %v", err)
		}
		for _, got := range []*Authenticator{loaded, a} {
			if got.Len() != len(tf.Tokens) {
				t.Fatalf("%d tokens loaded, the file lists %d", got.Len(), len(tf.Tokens))
			}
			for _, tk := range tf.Tokens {
				if p, ok := got.Lookup(tk.Token); !ok || p != (Principal{tk.Principal, tk.Role}) {
					t.Fatalf("token of %s/%s resolves to %+v, %v", tk.Principal, tk.Role, p, ok)
				}
			}
		}
		listed := slices.ContainsFunc(tf.Tokens, func(tk Token) bool { return tk.Token == prev.Token })
		if _, ok := a.Lookup(prev.Token); ok && !listed {
			t.Fatal("the previous token still resolves after a reload that dropped it")
		}
	})
}
