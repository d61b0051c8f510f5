//go:build race

package cfgir

func init() { raceBuild = true }
